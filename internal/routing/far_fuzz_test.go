package routing_test

import (
	"math"
	"testing"

	"torusnet/internal/load"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// maxEnumerated caps the paths FuzzFARKernel enumerates for one pair, so
// every input runs in milliseconds; T³₈'s largest pair has 277 200.
const maxEnumerated = 1 << 17

// FuzzFARKernel checks FAR's Pascal-lattice pair kernel against oracles
// that share none of its code, on T^d_k for k in 2…8 and d in 1…3:
//   - for the pair (p, q), AccumulatePair's per-edge probability times
//     PathCount is the number of paths ForEachPath enumerates through that
//     edge, exactly (both are integers far below 2⁵³);
//   - over a placement, the symmetry engine, forced, matches the generic
//     pair loop within the cross-check tolerance (CrossCheck panics
//     otherwise), on random, linear and multiple-linear placements;
//   - Σ E(l) is the Lee-distance total.
func FuzzFARKernel(f *testing.F) {
	for k := uint8(2); k <= 8; k++ {
		for d := uint8(1); d <= 3; d++ {
			f.Add(k, d, uint16(k)*7, uint16(k)*uint16(d)*13+1, uint8(k+d), uint8(k), int64(k)*10+int64(d))
		}
	}
	f.Fuzz(func(t *testing.T, kb, db uint8, pi, qi uint16, kind, count uint8, seed int64) {
		k, d := 2+int(kb)%7, 1+int(db)%3
		tr := torus.New(k, d)
		p, q := torus.Node(int(pi)%tr.Nodes()), torus.Node(int(qi)%tr.Nodes())
		far := routing.FAR{}
		if paths := far.PathCount(tr, p, q); paths <= maxEnumerated {
			visits := make([]float64, tr.Edges())
			far.ForEachPath(tr, p, q, func(path routing.Path) bool {
				for _, e := range path.Edges {
					visits[e]++
				}
				return true
			})
			loads := make([]float64, tr.Edges())
			far.AccumulatePair(tr, p, q, 1, loads, routing.NewPairScratch(tr))
			for e, want := range visits {
				got := loads[e] * paths
				if math.Round(got) != want || math.Abs(got-want) > 1e-9*math.Max(1, want) {
					t.Fatalf("%s %d→%d: edge %s carries %v of %v paths by the kernel, %v by enumeration",
						tr, p, q, tr.EdgeString(torus.Edge(e)), got, paths, want)
				}
			}
		}

		var spec placement.Spec = placement.Random{Count: 2 + int(count)%min(tr.Nodes()-1, 24), Seed: seed}
		switch kind % 3 {
		case 1:
			spec = placement.Linear{C: int(count) % k}
		case 2:
			spec = placement.MultipleLinear{T: 1 + int(count)%max(1, k-1)}
		}
		pl, err := spec.Build(tr)
		if err != nil || pl.Size() > 64 {
			return
		}
		res := load.Compute(pl, far, load.Options{Workers: 1, FastPath: load.FastPathForce, CrossCheck: true})
		if want := load.ExpectedTotal(pl); math.Abs(res.Total-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("%s on %s: Σ E(l) = %v, Σ Lee = %v", pl.Name(), tr, res.Total, want)
		}
	})
}
