package routing

import (
	"math"
	"testing"

	"torusnet/internal/torus"
)

// TestAccumulatePairAllocFree checks every kernel is allocation-free in
// steady state, for tied and untied pairs alike: the property the load
// engines' hot loops and the optimizer's incremental state rely on.
func TestAccumulatePairAllocFree(t *testing.T) {
	for _, tc := range []struct{ k, d int }{{6, 3}, {5, 3}} {
		tr := torus.New(tc.k, tc.d)
		sc := NewPairScratch(tr)
		loads := make([]float64, tr.Edges())
		p, q := torus.Node(0), torus.Node(tr.Nodes()-1-tc.k)
		for _, alg := range kernelAlgorithms(tc.d) {
			allocs := testing.AllocsPerRun(20, func() {
				alg.AccumulatePair(tr, p, q, 0.5, loads, sc)
			})
			if allocs != 0 {
				t.Errorf("%s on %s allocates %v times per pair, want 0", alg.Name(), tr, allocs)
			}
		}
	}
}

// TestTranslationEquivariance verifies the marker claims empirically: for
// every algorithm declaring equivariance, translating both endpoints
// translates the per-edge load pattern via the EdgeTranslation table.
// MeshODR must not declare equivariance (its array metric is absolute).
func TestTranslationEquivariance(t *testing.T) {
	if IsTranslationEquivariant(MeshODR{}) {
		t.Fatal("MeshODR must not be translation-equivariant")
	}
	algs := []Algorithm{ODR{}, ODRMulti{}, UDR{}, UDRMulti{}, FAR{}, ODROrder{Order: []int{1, 0}}}
	tr := torus.New(4, 2)
	offsets := [][]int{{1, 0}, {2, 3}, {3, 1}}
	for _, alg := range algs {
		if !IsTranslationEquivariant(alg) {
			t.Fatalf("%s should declare translation equivariance", alg.Name())
		}
		for _, off := range offsets {
			et := tr.NewEdgeTranslation(off)
			for p := 0; p < tr.Nodes(); p++ {
				for q := 0; q < tr.Nodes(); q++ {
					base := pairLoads(alg, tr, torus.Node(p), torus.Node(q), 1)
					shifted := pairLoads(alg, tr, et.Node(torus.Node(p)), et.Node(torus.Node(q)), 1)
					for e := range base {
						if math.Abs(base[e]-shifted[et.Edge(torus.Edge(e))]) > 1e-12 {
							t.Fatalf("%s offset %v pair (%d,%d): edge %d load %g, translated %g",
								alg.Name(), off, p, q, e, base[e], shifted[et.Edge(torus.Edge(e))])
						}
					}
				}
			}
		}
	}
}
