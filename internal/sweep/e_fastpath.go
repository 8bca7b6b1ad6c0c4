package sweep

import (
	"torusnet/internal/load"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

func init() {
	register(Experiment{
		ID:       "E31",
		Title:    "Symmetry fast path: engine cross-check and orbit statistics",
		PaperRef: "Theorem 2 mechanism: translation invariance of linear placements",
		Run:      runE31,
	})
}

// runE31 exercises the load engine's translation fast path across the
// placement/algorithm matrix: for symmetric placements it reports the
// stabilizer size, the orbit count, and the maximum per-edge divergence
// between the symmetry and generic engines; unstructured placements must
// show the automatic fallback, to the ring-flow engine under the
// dimension-ordered routings and to the generic engine otherwise. Workers is pinned to 1 so the float
// summation order — and with it the divergence column — is machine-
// independent.
func runE31(scale Scale) *Table {
	type cse struct {
		k, d int
		spec placement.Spec
		alg  routing.Algorithm
	}
	cases := []cse{
		{4, 2, placement.Linear{C: 0}, routing.ODR{}},
		{5, 2, placement.Linear{C: 1}, routing.UDR{}},
		{4, 2, placement.MultipleLinear{T: 2}, routing.ODRMulti{}},
		{4, 2, placement.Random{Count: 6, Seed: 1}, routing.ODR{}},
		{4, 2, placement.Linear{C: 0}, routing.MeshODR{}},
	}
	if scale == Full {
		cases = append(cases,
			cse{8, 2, placement.Linear{C: 0}, routing.ODR{}},
			cse{6, 3, placement.Linear{C: 0}, routing.ODRMulti{}},
			cse{8, 3, placement.Linear{C: 0}, routing.ODR{}},
			cse{6, 3, placement.MultipleLinear{T: 3}, routing.UDRMulti{}},
			cse{16, 3, placement.Linear{C: 0}, routing.ODR{}},
			cse{10, 2, placement.Random{Count: 20, Seed: 7}, routing.UDR{}},
		)
	}
	tb := &Table{
		ID:       "E31",
		Title:    "Translation fast path vs generic engine: dispatch and divergence",
		PaperRef: "Theorem 2 / §6.1 symmetry argument",
		Columns: []string{"d", "k", "placement", "algorithm", "|P|", "|stab|", "orbits",
			"engine", "max|fast-generic|", "agree"},
	}
	for _, c := range cases {
		t := torus.New(c.k, c.d)
		p := mustPlacement(c.spec, t)
		stab := p.TranslationStabilizer()
		orbits := 0
		if len(stab) > 0 {
			orbits = p.Size() / len(stab)
		}
		fast := load.Compute(p, c.alg, load.Options{Workers: 1})
		generic := load.Compute(p, c.alg, load.Options{Workers: 1, FastPath: load.FastPathOff})
		div := load.MaxEngineDivergence(fast, generic)
		agree := "ok"
		if div > 1e-9 {
			agree = "FAIL"
		}
		tb.AddRow(c.d, c.k, p.Name(), c.alg.Name(), p.Size(), len(stab), orbits,
			fast.Engine, div, agree)
	}
	tb.AddNote("Linear placements are closed under the k^{d−1} translations with zero coordinate sum, so one orbit covers every source and routing walks drop from |P|² to |P| pairs. Random placements (trivial stabilizer) fall through to the ring-flow engine, which sweeps per-ring processor marginals instead of pairs; MeshODR (not translation-equivariant: the array metric distinguishes wrap links) dispatches to the generic engine. Divergence beyond float summation order is a soundness failure.")
	return tb
}
