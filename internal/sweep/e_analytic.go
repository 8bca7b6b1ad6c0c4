package sweep

import (
	"math"

	"torusnet/internal/load"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

func init() {
	register(Experiment{
		ID:       "E32",
		Title:    "Closed forms vs computed E_max",
		PaperRef: "Theorems 2-5 closed forms on linear placements",
		Run:      runE32,
	})
}

// runE32 measures the paper's closed forms against the computed engines
// cell by cell, with t read off each placement spec: on the Theorem 2
// equality cells (single linear placements under ODR for every k, and
// under ODR-multi for odd k) the difference must be exactly zero; on the
// Theorem 3-5 cells the closed form is an upper bound and the row reports
// its slack factor instead. Workers is pinned to 1 so the computed column
// is machine-independent.
func runE32(scale Scale) *Table {
	type cse struct {
		k, d int
		spec placement.Spec
		alg  routing.Algorithm
	}
	cases := []cse{
		{4, 2, placement.Linear{C: 0}, routing.ODR{}},
		{5, 2, placement.Linear{C: 2}, routing.ODR{}},
		{5, 2, placement.Linear{C: 0}, routing.ODRMulti{}},
		{4, 2, placement.MultipleLinear{T: 2}, routing.ODR{}},
		{4, 2, placement.Linear{C: 0}, routing.UDR{}},
		{5, 2, placement.MultipleLinear{T: 2}, routing.UDRMulti{}},
	}
	if scale == Full {
		cases = append(cases,
			cse{6, 2, placement.Linear{C: 0}, routing.ODR{}},
			cse{7, 2, placement.Linear{C: 3}, routing.ODRMulti{}},
			cse{4, 3, placement.Linear{C: 0}, routing.ODR{}},
			cse{5, 3, placement.Linear{C: 0}, routing.ODRMulti{}},
			cse{6, 3, placement.Linear{C: 1}, routing.ODR{}},
			cse{8, 3, placement.Linear{C: 0}, routing.ODR{}},
			cse{6, 3, placement.MultipleLinear{T: 3}, routing.ODR{}},
			cse{5, 3, placement.Linear{C: 0}, routing.UDR{}},
			cse{6, 3, placement.MultipleLinear{T: 2}, routing.UDRMulti{}},
		)
	}
	tb := &Table{
		ID:       "E32",
		Title:    "Analytic closed forms vs computed engines: agreement and bound slack",
		PaperRef: "Theorems 2-5",
		Columns: []string{"d", "k", "placement", "algorithm", "theorem", "exact",
			"analytic", "computed", "diff", "slack", "agree"},
	}
	for _, c := range cases {
		t := torus.New(c.k, c.d)
		p := mustPlacement(c.spec, t)
		classes, _ := placement.ResidueClasses(c.spec)
		an, ok := load.AnalyticEMax(c.k, c.d, classes, c.alg.Name(), false)
		if !ok {
			// Every case is a residue-class shape under a routing the
			// theorems cover; no closed form means the theorem map broke.
			panic("E32: no closed form for " + p.Name() + "/" + c.alg.Name())
		}
		computed := load.Compute(p, c.alg, load.Options{Workers: 1})
		diff := an.EMax - computed.Max
		slack := 0.0
		if computed.Max > 0 {
			slack = an.EMax / computed.Max
		}
		agree := "ok"
		if an.Exact {
			if diff != 0 {
				agree = "FAIL"
			}
		} else if computed.Max > an.EMax+1e-9*math.Max(1, an.EMax) {
			agree = "FAIL" // an upper bound below the measured value
		}
		tb.AddRow(c.d, c.k, p.Name(), c.alg.Name(), an.Theorem, an.Exact,
			an.EMax, computed.Max, diff, slack, agree)
	}
	tb.AddNote("Exact rows (Theorem 2: ODR on any k; ODR-multi on odd k, where unique shortest ring paths make it coincide with ODR) must show diff 0 — the closed form k^{d-1}/2 (even k) or (k^{d-1}-k^{d-2})/2 (odd k) is the measured E_max bit for bit. Bound rows (Theorems 3-5) report slack = analytic/computed >= 1; the t^2 and 2^{d-1} factors are loose by design. The torusd fast lane serves only the exact cells; this table calls load.AnalyticEMax with t read off each placement spec (linear: 1, multilinear: t) and runs load.Compute for the computed column.")
	return tb
}
