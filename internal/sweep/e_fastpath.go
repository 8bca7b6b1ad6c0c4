package sweep

import (
	"fmt"

	"torusnet/internal/load"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

func init() {
	register(Experiment{
		ID:       "E31",
		Title:    "Engine dispatch: predicted costs, chosen engine and cross-check",
		PaperRef: "Theorem 2 mechanism: translation invariance of linear placements",
		Run:      runE31,
	})
}

// runE31 is the load engine's dispatch table across the placement/algorithm
// matrix: for each input it reports the order of the translation group
// its builder records and the orbit count,
// the cost model's predicted time of every engine that applies, the
// engine Compute chose, and the maximum per-edge divergence between that
// engine and the generic pair loop. Workers is pinned to 1 so the float
// summation order — and with it the divergence column — is
// machine-independent.
func runE31(scale Scale) *Table {
	type cse struct {
		k, d int
		spec placement.Spec
		alg  routing.Algorithm
	}
	cases := []cse{
		{5, 3, placement.Linear{C: 2}, routing.ODR{}},
		{5, 2, placement.Linear{C: 1}, routing.UDR{}},
		{4, 2, placement.MultipleLinear{T: 2}, routing.ODRMulti{}},
		{6, 2, placement.Random{Count: 12, Seed: 1}, routing.ODR{}},
		{4, 2, placement.Linear{C: 0}, routing.MeshODR{}},
		{6, 3, placement.Linear{C: 0}, routing.UDR{}},
		{4, 2, placement.Linear{C: 0}, routing.FAR{}},
		{6, 2, placement.MultipleLinear{T: 3}, routing.FAR{}},
		{6, 2, placement.Random{Count: 6, Seed: 3}, routing.FAR{}},
	}
	if scale == Full {
		cases = append(cases,
			cse{8, 2, placement.Linear{C: 0}, routing.ODR{}},
			cse{6, 3, placement.Linear{C: 0}, routing.ODRMulti{}},
			cse{8, 3, placement.Linear{C: 0}, routing.ODR{}},
			cse{6, 3, placement.MultipleLinear{T: 3}, routing.UDRMulti{}},
			cse{16, 3, placement.Linear{C: 0}, routing.ODR{}},
			cse{10, 2, placement.Random{Count: 20, Seed: 7}, routing.UDR{}},
			cse{16, 2, placement.MultipleLinear{T: 3}, routing.FAR{}},
		)
	}
	tb := &Table{
		ID:       "E31",
		Title:    "Engine dispatch: predicted cost per engine, chosen engine, divergence from the pair loop",
		PaperRef: "Theorem 2 / §6.1 symmetry argument",
		Columns: []string{"d", "k", "placement", "algorithm", "|P|", "|stab|", "orbits",
			"generic µs", "symmetry µs", "ring-flow µs", "engine", "max|fast-generic|", "agree"},
	}
	for _, c := range cases {
		t := torus.New(c.k, c.d)
		p := mustPlacement(c.spec, t)
		order := p.GroupOrder()
		predicted := map[string]string{load.EngineSymmetry: "-", load.EngineRingFlow: "-"}
		_, preds := load.Predict(p, c.alg)
		for _, pr := range preds {
			predicted[pr.Engine] = fmt.Sprintf("%.1f", pr.Micros)
		}
		fast := load.Compute(p, c.alg, load.Options{Workers: 1})
		generic := load.Compute(p, c.alg, load.Options{Workers: 1, FastPath: load.FastPathOff})
		div := load.MaxEngineDivergence(fast, generic)
		agree := "ok"
		if div > 1e-9 {
			agree = "FAIL"
		}
		tb.AddRow(c.d, c.k, p.Name(), c.alg.Name(), p.Size(), order, p.Size()/order,
			predicted[load.EngineGeneric], predicted[load.EngineSymmetry], predicted[load.EngineRingFlow],
			fast.Engine, div, agree)
	}
	tb.AddNote("Compute runs the engine the cost model prices lowest (\"-\": not weighed). The ring-flow engine, which sweeps per-ring processor marginals instead of pairs, is weighed for the five dimension-ordered routings (ODR, ODR-multi, ODROrder, UDR and UDR-multi) and takes them unless the placement is so sparse that the pair loop is cheaper. The symmetry engine, which labels every node with its coset of the translation group the placement's builder records (|stab|: each node's residue Σ c_j·u_j mod k is its label), routes one source per orbit into one base vector and folds that vector by cosets, is weighed only for FAR, which ring-flow does not model, and only where that group is non-trivial; a random or explicit placement records none (|stab| 1) and runs FAR on the pair loop. It takes FAR wherever it is priced below the pair loop, which here is every FAR input with a recorded group, T²₄ linear's four sources included. Under UDR a single orbit on a small torus (T²₅, T³₆ here) would be priced up to 1.8× lower on the symmetry engine; ring-flow serves it anyway. MeshODR is not translation-equivariant (the array metric distinguishes wrap links), so it always walks pairs. Predictions are in microseconds on the 2-CPU Intel Xeon the constants were fitted on. Divergence beyond float summation order is a soundness failure.")
	return tb
}
