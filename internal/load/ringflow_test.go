package load

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

var ringAlgs = []routing.Algorithm{routing.ODR{}, routing.ODRMulti{}, routing.UDR{}, routing.UDRMulti{}}

// runRingFlow runs the ring-flow engine on p whether or not the dispatcher
// would pick it.
func runRingFlow(t *testing.T, p *placement.Placement, alg routing.Algorithm, workers int) *Result {
	t.Helper()
	fam, ok := ringFamilyOf(alg, p.Torus().D())
	if !ok {
		t.Fatalf("%s: not a ring-flow routing", alg.Name())
	}
	res := ringFlowResult(context.Background(), p, alg, fam, workers, true)
	return &res
}

// fuzzPlacement builds placement kind on tr: random, linear, multiple
// linear, the main diagonal, the full torus, or a random 0, 1 or 2
// processors.
func fuzzPlacement(tr *torus.Torus, kind uint8, count uint16, seed int64) (*placement.Placement, error) {
	switch kind % 6 {
	case 0:
		return placement.Random{Count: int(count) % (min(tr.Nodes(), 96) + 1), Seed: seed}.Build(tr)
	case 1:
		return placement.Linear{C: int(count) % tr.K()}.Build(tr)
	case 2:
		return placement.MultipleLinear{T: 1 + int(count)%(tr.K()-1)}.Build(tr)
	case 3:
		coords := make([]int, tr.D())
		var nodes []torus.Node
		for i := 0; i < tr.K(); i++ {
			for j := range coords {
				coords[j] = i
			}
			nodes = append(nodes, tr.NodeAt(coords))
		}
		return placement.New(tr, nodes, "diagonal"), nil
	case 4:
		return placement.Full{}.Build(tr)
	}
	return placement.Random{Count: int(count) % 3, Seed: seed}.Build(tr)
}

// FuzzRingFlow checks the ring-flow engine on T^d_k for k in 3…9 and d in
// 1…4 with kᵈ ≤ 4096, every placement kind of fuzzPlacement and all five
// routings it serves, ODROrder with a random permutation of 0…d−1 drawn
// from the seed:
//   - it equals ComputeExact per edge, bit for bit, whenever |P| ≤ 64
//     (the big.Rat oracle walks every pair);
//   - the generic pair loop agrees within divergenceTolerance, and under
//     ODROrder bit for bit, since its loads are integers;
//   - Σ E(l) is the Lee-distance total;
//   - for odd k, ODR-multi equals ODR and UDR-multi equals UDR;
//   - 1, 2 and 3 workers give identical vectors.
//
// Placements past 256 processors are skipped to keep each input fast.
func FuzzRingFlow(f *testing.F) {
	for k := uint8(3); k <= 9; k++ {
		for d := uint8(1); d <= 4; d++ {
			for kind := uint8(0); kind < 6; kind++ {
				f.Add(k, d, kind, uint16(k)*uint16(d)+uint16(kind), int64(k)*10+int64(d))
			}
		}
	}
	f.Fuzz(func(t *testing.T, kb, db, kind uint8, count uint16, seed int64) {
		k, d := 3+int(kb)%7, 1+int(db)%4
		for d > 1 && math.Pow(float64(k), float64(d)) > 4096 {
			d--
		}
		tr := torus.New(k, d)
		p, err := fuzzPlacement(tr, kind, count, seed)
		if err != nil || p.Size() > 256 {
			return
		}
		byAlg := map[string]*Result{}
		order := routing.ODROrder{Order: rand.New(rand.NewSource(seed)).Perm(d)}
		for _, alg := range append(ringAlgs[:len(ringAlgs):len(ringAlgs)], order) {
			got := runRingFlow(t, p, alg, 1)
			byAlg[alg.Name()] = got
			for _, workers := range []int{2, 3} {
				if other := runRingFlow(t, p, alg, workers); !sameBits(got.Loads, other.Loads) {
					t.Fatalf("%s/%s on %s: %d workers change the loads", p.Name(), alg.Name(), tr, workers)
				}
			}
			if p.Size() <= 64 {
				exact, err := ComputeExact(p, alg)
				if err != nil {
					t.Fatal(err)
				}
				for e, v := range got.Loads {
					if want, _ := exact.Loads[e].Float64(); math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("%s/%s on %s: edge %s ring-flow %v, exact %v",
							p.Name(), alg.Name(), tr, tr.EdgeString(torus.Edge(e)), v, want)
					}
				}
			}
			generic := computeGeneric(context.Background(), p, alg, 1, true)
			if _, ordered := alg.(routing.ODROrder); ordered && !sameBits(got.Loads, generic.Loads) {
				t.Fatalf("%s/%s on %s: ring-flow differs from the pair loop", p.Name(), alg.Name(), tr)
			}
			for e, v := range got.Loads {
				want := generic.Loads[e]
				if math.Abs(v-want) > divergenceTolerance*math.Max(1, math.Abs(want)) {
					t.Fatalf("%s/%s on %s: edge %s ring-flow %v, generic %v",
						p.Name(), alg.Name(), tr, tr.EdgeString(torus.Edge(e)), v, want)
				}
			}
			if want := ExpectedTotal(p); math.Abs(got.Total-want) > divergenceTolerance*math.Max(1, want) {
				t.Fatalf("%s/%s on %s: total %v, want %v", p.Name(), alg.Name(), tr, got.Total, want)
			}
		}
		if k%2 == 1 {
			for multi, plain := range map[string]string{"ODR-multi": "ODR", "UDR-multi": "UDR"} {
				if !sameBits(byAlg[multi].Loads, byAlg[plain].Loads) {
					t.Fatalf("%s on %s: odd k, yet %s differs from %s", p.Name(), tr, multi, plain)
				}
			}
		}
	})
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRingFlowEvenRings covers what FuzzRingFlow's k ≥ 3 leaves out: the
// two-node ring, where every arc is a tie, and the small even rings, each
// against the exact engine bit for bit.
func TestRingFlowEvenRings(t *testing.T) {
	for _, sh := range []struct{ k, d int }{{2, 1}, {2, 3}, {2, 5}, {4, 2}, {6, 3}} {
		tr := torus.New(sh.k, sh.d)
		for _, spec := range []placement.Spec{
			placement.Random{Count: min(tr.Nodes(), 9), Seed: 5},
			placement.Linear{C: 1},
			placement.Full{},
		} {
			p := mustBuild(t, spec, tr)
			if p.Size() > 64 {
				continue // the big.Rat oracle walks every pair
			}
			for _, alg := range ringAlgs {
				got := runRingFlow(t, p, alg, 2)
				exact, err := ComputeExact(p, alg)
				if err != nil {
					t.Fatal(err)
				}
				for e, v := range got.Loads {
					if want, _ := exact.Loads[e].Float64(); math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("%s/%s on %s: edge %s ring-flow %v, exact %v",
							p.Name(), alg.Name(), tr, tr.EdgeString(torus.Edge(e)), v, want)
					}
				}
			}
		}
	}
}

// TestRingFlowServes checks the cost model on T³₈, on cells at least twice
// as cheap for the winner as for the loser: ring-flow answers a dense
// random placement under every dimension order, but not one so sparse that
// the pair loop is less work, nor a routing it does not model.
func TestRingFlowServes(t *testing.T) {
	tr := torus.New(8, 3)
	for _, c := range []struct {
		n    int
		alg  routing.Algorithm
		want string
	}{
		{64, routing.UDR{}, EngineRingFlow},
		{64, routing.ODRMulti{}, EngineRingFlow},
		{64, routing.FAR{}, EngineGeneric},
		{64, routing.ODROrder{Order: []int{2, 1, 0}}, EngineRingFlow},
		{64, routing.ODR{}, EngineRingFlow},
		{4, routing.ODR{}, EngineGeneric},
		{2, routing.UDR{}, EngineGeneric},
	} {
		p := mustBuild(t, placement.Random{Count: c.n, Seed: 9}, tr)
		if res := Compute(p, c.alg, Options{Workers: 1}); res.Engine != c.want {
			t.Errorf("random:%d/%s: engine %q, want %q", c.n, c.alg.Name(), res.Engine, c.want)
		}
	}
}
