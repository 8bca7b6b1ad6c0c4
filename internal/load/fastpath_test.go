package load

import (
	"math"
	"testing"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

func mustBuild(t *testing.T, s placement.Spec, tr *torus.Torus) *placement.Placement {
	t.Helper()
	p, err := s.Build(tr)
	if err != nil {
		t.Fatalf("%s on %s: %v", s.Name(), tr, err)
	}
	return p
}

// TestFastPathMatchesGenericAndExact is the property test of the PR: for
// translation-symmetric placements across even/odd k and d ∈ {2,3}, and all
// four dimension-ordered routing algorithms, the symmetry engine, the
// generic engine, and the big.Rat exact engine agree per edge.
func TestFastPathMatchesGenericAndExact(t *testing.T) {
	algs := []routing.Algorithm{routing.ODR{}, routing.ODRMulti{}, routing.UDR{}, routing.UDRMulti{}}
	specs := []placement.Spec{
		placement.Linear{C: 0},
		placement.Linear{C: 1},
		placement.MultipleLinear{T: 2},
	}
	for _, dims := range []struct{ k, d int }{{4, 2}, {5, 2}, {6, 2}, {4, 3}, {3, 3}} {
		tr := torus.New(dims.k, dims.d)
		for _, spec := range specs {
			p := mustBuild(t, spec, tr)
			for _, alg := range algs {
				fast := Compute(p, alg, Options{FastPath: FastPathForce})
				if fast.Engine != EngineSymmetry {
					t.Fatalf("%s/%s on %s: forced fast path used engine %q", spec.Name(), alg.Name(), tr, fast.Engine)
				}
				generic := Compute(p, alg, Options{FastPath: FastPathOff})
				if generic.Engine != EngineGeneric {
					t.Fatalf("%s/%s on %s: FastPathOff used engine %q", spec.Name(), alg.Name(), tr, generic.Engine)
				}
				if div := MaxEngineDivergence(fast, generic); div > 1e-9 {
					t.Fatalf("%s/%s on %s: fast vs generic diverge by %g", spec.Name(), alg.Name(), tr, div)
				}
				exact, err := ComputeExact(p, alg)
				if err != nil {
					t.Fatalf("%s/%s on %s: exact engine: %v", spec.Name(), alg.Name(), tr, err)
				}
				for e := range fast.Loads {
					want, _ := exact.Loads[e].Float64()
					if math.Abs(fast.Loads[e]-want) > 1e-9*math.Max(1, want) {
						t.Fatalf("%s/%s on %s: edge %d fast %g, exact %g",
							spec.Name(), alg.Name(), tr, e, fast.Loads[e], want)
					}
				}
			}
		}
	}
}

// TestFastPathAutoDispatch pins the cost model's choice on named cells:
// symmetry keeps single-orbit UDR on a small torus, ring-flow takes
// multi-orbit UDR and ODR on any placement, symmetric or not, FAR takes
// symmetry whenever the stabilizer is non-trivial and the pair loop
// otherwise, and FastPathOff, or an algorithm that is not translation
// equivariant even under Force, runs the pair loop.
func TestFastPathAutoDispatch(t *testing.T) {
	for _, c := range []struct {
		k, d int
		spec placement.Spec
		alg  routing.Algorithm
		mode FastPathMode
		want string
	}{
		{6, 3, placement.Linear{}, routing.UDR{}, FastPathAuto, EngineSymmetry},
		{8, 3, placement.MultipleLinear{T: 2}, routing.UDR{}, FastPathAuto, EngineRingFlow},
		{16, 3, placement.Linear{}, routing.ODR{}, FastPathAuto, EngineRingFlow},
		{16, 2, placement.Random{Count: 16, Seed: 1}, routing.ODR{}, FastPathAuto, EngineRingFlow},
		{16, 2, placement.MultipleLinear{T: 3}, routing.FAR{}, FastPathAuto, EngineSymmetry},
		{4, 2, placement.Random{Count: 5, Seed: 1}, routing.FAR{}, FastPathAuto, EngineGeneric},
		{4, 2, placement.Linear{}, routing.MeshODR{}, FastPathForce, EngineGeneric},
		{4, 2, placement.Linear{}, routing.ODR{}, FastPathOff, EngineGeneric},
		{4, 2, placement.Random{Count: 5, Seed: 1}, routing.ODR{}, FastPathOff, EngineGeneric},
	} {
		tr := torus.New(c.k, c.d)
		p := mustBuild(t, c.spec, tr)
		if res := Compute(p, c.alg, Options{Workers: 1, FastPath: c.mode}); res.Engine != c.want {
			t.Errorf("%s/%s on %s (%v): engine %q, want %q", p.Name(), c.alg.Name(), tr, c.mode, res.Engine, c.want)
		}
	}
}

// TestFastPathForceTrivialStabilizer checks Force is still exact when the
// stabilizer is only the identity (every source is its own orbit).
func TestFastPathForceTrivialStabilizer(t *testing.T) {
	tr := torus.New(5, 2)
	p := mustBuild(t, placement.Random{Count: 6, Seed: 7}, tr)
	fast := Compute(p, routing.UDR{}, Options{FastPath: FastPathForce})
	if fast.Engine != EngineSymmetry {
		t.Fatalf("forced fast path used engine %q", fast.Engine)
	}
	generic := Compute(p, routing.UDR{}, Options{FastPath: FastPathOff})
	if div := MaxEngineDivergence(fast, generic); div > 1e-9 {
		t.Fatalf("trivial-stabilizer fast path diverges by %g", div)
	}
}

// TestFastPathCrossCheckMode checks CrossCheck passes on sound inputs (it
// panics on divergence, so plain completion is the assertion), for FAR and
// a permuted ODROrder through the symmetry engine the dispatcher picks,
// ODR-multi through the symmetry engine forced, and the four routings the
// ring-flow engine serves.
func TestFastPathCrossCheckMode(t *testing.T) {
	tr := torus.New(4, 2)
	p := mustBuild(t, placement.Linear{C: 0}, tr)
	for _, c := range []struct {
		alg  routing.Algorithm
		mode FastPathMode
	}{
		{routing.FAR{}, FastPathAuto},
		{routing.ODROrder{Order: []int{1, 0}}, FastPathAuto},
		{routing.ODRMulti{}, FastPathForce},
	} {
		res := Compute(p, c.alg, Options{CrossCheck: true, FastPath: c.mode})
		if res.Engine != EngineSymmetry {
			t.Fatalf("%s: engine %q, want symmetry", c.alg.Name(), res.Engine)
		}
	}
	random := mustBuild(t, placement.Random{Count: 12, Seed: 2}, torus.New(6, 2))
	for _, alg := range ringAlgs {
		res := Compute(random, alg, Options{CrossCheck: true})
		if res.Engine != EngineRingFlow {
			t.Fatalf("random/%s: engine %q, want ring-flow", alg.Name(), res.Engine)
		}
	}
}

// TestFastPathDeterministicAcrossWorkerCounts mirrors the generic engine's
// determinism contract for the symmetry engine; run under -race in CI it
// also proves the scatter phase is data-race-free.
func TestFastPathDeterministicAcrossWorkerCounts(t *testing.T) {
	tr := torus.New(6, 3)
	p := mustBuild(t, placement.Linear{C: 0}, tr)
	ref := Compute(p, routing.UDRMulti{}, Options{Workers: 1, FastPath: FastPathForce})
	for _, workers := range []int{2, 3, 8, 64} {
		got := Compute(p, routing.UDRMulti{}, Options{Workers: workers, FastPath: FastPathForce})
		if got.Engine != EngineSymmetry {
			t.Fatalf("workers=%d: engine %q", workers, got.Engine)
		}
		if div := MaxEngineDivergence(ref, got); div > 1e-9 {
			t.Fatalf("workers=%d diverges from serial by %g", workers, div)
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
		res := Compute(p, routing.ODRMulti{}, Options{FastPath: FastPathForce})
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
	for _, mode := range []FastPathMode{FastPathOff, FastPathForce} {
		capped := Compute(p, routing.UDR{}, Options{Workers: 5, FastPath: mode})
		over := Compute(p, routing.UDR{}, Options{Workers: 1000, FastPath: mode})
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
