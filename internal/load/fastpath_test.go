package load

import (
	"math"
	"testing"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// divergenceTolerance bounds the relative divergence two engines may
// accumulate from their different floating-point summation orders.
const divergenceTolerance = 1e-9

// checkAgainstGeneric fails t unless res, a result with loads for its
// placement under alg, agrees with the generic pair loop's within
// divergenceTolerance of its busiest edge. A larger divergence means an
// input wrongly admitted to a fast path.
func checkAgainstGeneric(t *testing.T, res *Result, alg routing.Algorithm) {
	t.Helper()
	generic := Compute(res.Placement, alg, Options{Workers: 1, FastPath: FastPathOff})
	if div := MaxEngineDivergence(res, generic); div > divergenceTolerance*math.Max(1, generic.Max) {
		t.Errorf("%s with %s: the %s engine diverges from the pair loop by %g (E_max %g)",
			res.Placement, alg.Name(), res.Engine, div, generic.Max)
	}
}

func mustBuild(t *testing.T, s placement.Spec, tr *torus.Torus) *placement.Placement {
	t.Helper()
	p, err := s.Build(tr)
	if err != nil {
		t.Fatalf("%s on %s: %v", s.Name(), tr, err)
	}
	return p
}

// TestFastPathMatchesGenericAndExact is the property test of the fast
// paths: for translation-symmetric placements across even and odd k and
// d ∈ {2, 3}, and every routing a fast path serves, the engine the cost
// model picks, the generic engine and the big.Rat exact engine agree per
// edge. The grid sends the five dimension-ordered routings to ring-flow
// and FAR to symmetry at least once each, and the three FAR cells below
// are ones the cost model gives to symmetry.
func TestFastPathMatchesGenericAndExact(t *testing.T) {
	type cell struct {
		k, d int
		spec placement.Spec
		alg  routing.Algorithm
		want string // the engine Auto must pick, or "" for any
	}
	var cells []cell
	for _, dims := range []struct{ k, d int }{{4, 2}, {5, 2}, {6, 2}, {4, 3}, {3, 3}} {
		rev := []int{1, 0}
		if dims.d == 3 {
			rev = []int{2, 1, 0}
		}
		algs := append(append([]routing.Algorithm(nil), ringAlgs...), routing.ODROrder{Order: rev}, routing.FAR{})
		for _, spec := range []placement.Spec{placement.Linear{C: 0}, placement.Linear{C: 1}, placement.MultipleLinear{T: 2}} {
			for _, alg := range algs {
				cells = append(cells, cell{dims.k, dims.d, spec, alg, ""})
			}
		}
	}
	cells = append(cells,
		cell{6, 2, placement.MultipleLinear{T: 3}, routing.FAR{}, EngineSymmetry},
		cell{6, 3, placement.Linear{}, routing.FAR{}, EngineSymmetry},
		cell{16, 2, placement.MultipleLinear{T: 3}, routing.FAR{}, EngineSymmetry},
	)
	seen := map[string]bool{}
	for _, c := range cells {
		tr := torus.New(c.k, c.d)
		p := mustBuild(t, c.spec, tr)
		name := p.Name() + "/" + c.alg.Name() + " on " + tr.String()
		fast := Compute(p, c.alg, Options{})
		if c.want != "" && fast.Engine != c.want {
			t.Fatalf("%s: engine %q, want %q", name, fast.Engine, c.want)
		}
		seen[c.alg.Name()+" "+fast.Engine] = true
		generic := Compute(p, c.alg, Options{FastPath: FastPathOff})
		if generic.Engine != EngineGeneric {
			t.Fatalf("%s: FastPathOff used engine %q", name, generic.Engine)
		}
		if div := MaxEngineDivergence(fast, generic); div > 1e-9 {
			t.Fatalf("%s: %s vs generic diverge by %g", name, fast.Engine, div)
		}
		exact, err := ComputeExact(p, c.alg)
		if err != nil {
			t.Fatalf("%s: exact engine: %v", name, err)
		}
		for e := range fast.Loads {
			want, _ := exact.Loads[e].Float64()
			if math.Abs(fast.Loads[e]-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("%s: edge %d %s %g, exact %g", name, e, fast.Engine, fast.Loads[e], want)
			}
		}
	}
	for _, want := range []string{"ODR ring-flow", "ODR-multi ring-flow", "ODR[2 1 0] ring-flow", "UDR ring-flow", "UDR-multi ring-flow", "FAR symmetry"} {
		if !seen[want] {
			t.Errorf("no cell ran %s", want)
		}
	}
}

// TestFastPathAutoDispatch pins the cost model's choice on named cells:
// ring-flow takes ODR, ODROrder and UDR on any placement dense enough,
// symmetric or not, single orbit included; FAR takes symmetry where the
// placement's builder records a non-trivial translation group and it is
// priced below the pair loop, and the pair loop otherwise, a symmetric
// explicit set included; and FastPathOff, or an algorithm that is not
// translation equivariant, runs the pair loop.
func TestFastPathAutoDispatch(t *testing.T) {
	for _, c := range []struct {
		k, d int
		spec placement.Spec
		alg  routing.Algorithm
		mode FastPathMode
		want string
	}{
		{6, 3, placement.Linear{}, routing.UDR{}, FastPathAuto, EngineRingFlow},
		{8, 3, placement.MultipleLinear{T: 2}, routing.UDR{}, FastPathAuto, EngineRingFlow},
		{16, 3, placement.Linear{}, routing.ODR{}, FastPathAuto, EngineRingFlow},
		{16, 2, placement.Random{Count: 16, Seed: 1}, routing.ODR{}, FastPathAuto, EngineRingFlow},
		{8, 3, placement.Linear{}, routing.ODROrder{Order: []int{1, 2, 0}}, FastPathAuto, EngineRingFlow},
		{16, 2, placement.MultipleLinear{T: 3}, routing.FAR{}, FastPathAuto, EngineSymmetry},
		{6, 3, placement.Linear{}, routing.FAR{}, FastPathAuto, EngineSymmetry},
		{4, 2, placement.Random{Count: 5, Seed: 1}, routing.FAR{}, FastPathAuto, EngineGeneric},
		// linear:0's nodes, listed: a symmetric set no builder records a
		// group for.
		{4, 2, placement.Explicit{Label: "listed", Coords: [][]int{{0, 0}, {1, 3}, {2, 2}, {3, 1}}}, routing.FAR{}, FastPathAuto, EngineGeneric},
		{4, 2, placement.Linear{}, routing.MeshODR{}, FastPathAuto, EngineGeneric},
		{4, 2, placement.Linear{}, routing.ODR{}, FastPathOff, EngineGeneric},
		{6, 3, placement.Linear{}, routing.FAR{}, FastPathOff, EngineGeneric},
		{4, 2, placement.Random{Count: 5, Seed: 1}, routing.ODR{}, FastPathOff, EngineGeneric},
	} {
		tr := torus.New(c.k, c.d)
		p := mustBuild(t, c.spec, tr)
		if res := Compute(p, c.alg, Options{Workers: 1, FastPath: c.mode}); res.Engine != c.want {
			t.Errorf("%s/%s on %s (%v): engine %q, want %q", p.Name(), c.alg.Name(), tr, c.mode, res.Engine, c.want)
		}
	}
}

// TestFastPathCrossCheckMode checks the fast paths against the generic
// pair loop on sound inputs: FAR through the symmetry engine on one and
// on several orbits, and the five routings the ring-flow engine serves.
func TestFastPathCrossCheckMode(t *testing.T) {
	for _, p := range []*placement.Placement{
		mustBuild(t, placement.MultipleLinear{T: 3}, torus.New(6, 2)),
		mustBuild(t, placement.Linear{}, torus.New(6, 3)),
		mustBuild(t, placement.LayerCluster{Dim: 1}, torus.New(6, 3)),
	} {
		res := Compute(p, routing.FAR{}, Options{})
		if res.Engine != EngineSymmetry {
			t.Fatalf("%s/FAR: engine %q, want symmetry", p.Name(), res.Engine)
		}
		checkAgainstGeneric(t, res, routing.FAR{})
	}
	random := mustBuild(t, placement.Random{Count: 12, Seed: 2}, torus.New(6, 2))
	for _, alg := range append(ringAlgs[:len(ringAlgs):len(ringAlgs)], routing.ODROrder{Order: []int{1, 0}}) {
		res := Compute(random, alg, Options{})
		if res.Engine != EngineRingFlow {
			t.Fatalf("random/%s: engine %q, want ring-flow", alg.Name(), res.Engine)
		}
		checkAgainstGeneric(t, res, alg)
	}
}

// TestFastPathDeterministicAcrossWorkerCounts checks that the symmetry
// engine's answer does not depend on the worker count: its passes are
// serial, so Loads, Max, MaxEdge and Total agree bit for bit at every
// count, on one orbit (T³₆ linear) and on several (T²₁₆ and T³₈ multi:3).
func TestFastPathDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, c := range []struct {
		k, d int
		spec placement.Spec
	}{
		{6, 3, placement.Linear{C: 0}},
		{16, 2, placement.MultipleLinear{T: 3}},
		{8, 3, placement.MultipleLinear{T: 3}},
	} {
		p := mustBuild(t, c.spec, torus.New(c.k, c.d))
		ref := Compute(p, routing.FAR{}, Options{Workers: 1})
		for _, workers := range []int{1, 2, 3, 8} {
			got := Compute(p, routing.FAR{}, Options{Workers: workers})
			if got.Engine != EngineSymmetry {
				t.Fatalf("%s workers=%d: engine %q", p, workers, got.Engine)
			}
			sameResult(t, engineCase{p: p, alg: routing.FAR{}, opts: Options{Workers: workers}, kind: "exchange"}, got, ref)
		}
	}
}

// TestFastPathConservation checks load conservation (Total = Σ Lee
// distances) holds for the symmetry engine, including multi-orbit
// placements.
func TestFastPathConservation(t *testing.T) {
	tr := torus.New(6, 2)
	for _, spec := range []placement.Spec{placement.Linear{C: 2}, placement.MultipleLinear{T: 3}} {
		p := mustBuild(t, spec, tr)
		res := Compute(p, routing.FAR{}, Options{})
		if res.Engine != EngineSymmetry {
			t.Fatalf("%s/FAR: engine %q, want symmetry", spec.Name(), res.Engine)
		}
		if want := ExpectedTotal(p); math.Abs(res.Total-want) > 1e-6 {
			t.Fatalf("%s: total %g, want %g", spec.Name(), res.Total, want)
		}
	}
}

// TestEffectiveWorkersPureFunction is the regression test for the workers
// bugfix task: the partial-accumulator count, and with it the float merge
// order, must depend only on (requested, items) — an over-request equal to
// the item count cap must produce bit-identical loads.
func TestEffectiveWorkersPureFunction(t *testing.T) {
	for _, tc := range []struct{ requested, items, want int }{
		{0, 10, effectiveWorkers(0, 10)}, // GOMAXPROCS-dependent, self-consistent
		{3, 10, 3},
		{10, 3, 3},
		{1000, 3, 3},
		{5, 0, 1},
		{-2, 0, 1},
	} {
		if got := effectiveWorkers(tc.requested, tc.items); got != tc.want {
			t.Fatalf("effectiveWorkers(%d, %d) = %d, want %d", tc.requested, tc.items, got, tc.want)
		}
	}

	tr := torus.New(5, 2)
	p := mustBuild(t, placement.Linear{C: 0}, tr) // |P| = 5
	for _, mode := range []FastPathMode{FastPathOff, FastPathAuto} {
		capped := Compute(p, routing.FAR{}, Options{Workers: 5, FastPath: mode})
		over := Compute(p, routing.FAR{}, Options{Workers: 1000, FastPath: mode})
		for e := range capped.Loads {
			if capped.Loads[e] != over.Loads[e] {
				t.Fatalf("mode %v: workers=5 and workers=1000 differ bitwise at edge %d: %g vs %g",
					mode, e, capped.Loads[e], over.Loads[e])
			}
		}
	}
}

// TestComputeGenericAllocFree pins the satellite's allocation win: the
// generic engine's steady state must not allocate per pair (only the fixed
// per-call buffers remain).
func TestComputeGenericAllocFree(t *testing.T) {
	tr := torus.New(6, 3)
	p := mustBuild(t, placement.Linear{C: 0}, tr) // 36 processors, 1260 pairs
	opts := Options{Workers: 1, FastPath: FastPathOff}
	for _, alg := range []routing.Algorithm{routing.ODR{}, routing.ODRMulti{}, routing.UDR{}, routing.UDRMulti{}} {
		allocs := testing.AllocsPerRun(3, func() {
			Compute(p, alg, opts)
		})
		// Fixed per-call cost: partials slice + worker local + scratch
		// buffers + Result; must not scale with the 1260 pairs.
		if allocs > 32 {
			t.Errorf("%s: generic Compute allocates %v times per call, want a small pair-independent constant", alg.Name(), allocs)
		}
	}
}
