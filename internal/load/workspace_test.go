package load

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// engineCase is one compute through one of the pooled engines.
type engineCase struct {
	p    *placement.Placement
	alg  routing.Algorithm
	opts Options
	kind string // "exchange", "pattern" or "valiant"
}

func (c engineCase) String() string {
	return fmt.Sprintf("%s %s/%s on %s (workers %d, fast path %v)",
		c.kind, c.p.Name(), c.alg.Name(), c.p.Torus(), c.opts.Workers, c.opts.FastPath)
}

func (c engineCase) run() *Result {
	switch c.kind {
	case "pattern":
		return ComputePattern(c.p, Transpose{}, c.alg, c.opts)
	case "valiant":
		return ComputeValiant(c.p, Shift{Offset: ones(c.p.Torus().D())}, c.alg, c.opts)
	}
	return Compute(c.p, c.alg, c.opts)
}

func ones(d int) []int {
	out := make([]int, d)
	for j := range out {
		out[j] = 1
	}
	return out
}

// sameResult fails unless got equals want bit for bit.
func sameResult(t *testing.T, c engineCase, got, want *Result) {
	t.Helper()
	if got.Engine != want.Engine || got.Max != want.Max || got.MaxEdge != want.MaxEdge || got.Total != want.Total {
		t.Errorf("%v: engine %q max %v at %d total %v, want engine %q max %v at %d total %v", c,
			got.Engine, got.Max, got.MaxEdge, got.Total, want.Engine, want.Max, want.MaxEdge, want.Total)
		return
	}
	if len(got.Loads) != len(want.Loads) {
		t.Errorf("%v: %d loads, want %d", c, len(got.Loads), len(want.Loads))
		return
	}
	for e := range want.Loads {
		if math.Float64bits(got.Loads[e]) != math.Float64bits(want.Loads[e]) {
			t.Errorf("%v: edge %d load %v, want %v", c, e, got.Loads[e], want.Loads[e])
			return
		}
	}
}

// freshWorkspaceRun runs c on a workspace the pool has just made: two
// collections empty a sync.Pool, and nothing else computes meanwhile.
func freshWorkspaceRun(c engineCase) *Result {
	runtime.GC()
	runtime.GC()
	return c.run()
}

// TestWorkspaceReuseAcrossShapes has 8 goroutines share the workspace pool
// over computes of every pooled engine on tori of different edge counts,
// dimensions, routings, placements and worker counts, each in its own
// random order. A workspace buffer that is reused without being cleared,
// or sized for an earlier torus, changes some load; so every result must
// equal, bit for bit, the same compute on a fresh workspace.
func TestWorkspaceReuseAcrossShapes(t *testing.T) {
	shapes := []struct{ k, d int }{{6, 3}, {3, 2}, {5, 3}, {4, 1}, {4, 3}, {6, 2}, {3, 3}, {5, 2}}
	algs := []routing.Algorithm{routing.ODR{}, routing.ODRMulti{}, routing.UDR{}, routing.UDRMulti{}, routing.FAR{}}
	modes := []FastPathMode{FastPathAuto, FastPathOff, FastPathForce}
	rng := rand.New(rand.NewSource(17))
	var cases []engineCase
	for i := 0; i < 32; i++ {
		sh := shapes[i%len(shapes)]
		tr := torus.New(sh.k, sh.d)
		specs := []placement.Spec{
			placement.Linear{C: rng.Intn(sh.k)},
			placement.MultipleLinear{T: 2},
			placement.LayerCluster{Dim: rng.Intn(sh.d)},
			placement.Random{Count: 2 + rng.Intn(tr.Nodes()/2), Seed: rng.Int63()},
		}
		p, err := specs[rng.Intn(len(specs))].Build(tr)
		if err != nil {
			p = mustBuild(t, placement.Linear{}, tr)
		}
		c := engineCase{
			p:    p,
			alg:  algs[rng.Intn(len(algs))],
			opts: Options{Workers: 1 + rng.Intn(3), FastPath: modes[rng.Intn(len(modes))]},
			kind: []string{"exchange", "exchange", "exchange", "pattern", "valiant"}[rng.Intn(5)],
		}
		cases = append(cases, c)
	}
	want := make([]*Result, len(cases))
	for i, c := range cases {
		want[i] = freshWorkspaceRun(c)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		order := rand.New(rand.NewSource(int64(g))).Perm(2 * len(cases))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				i %= len(cases)
				sameResult(t, cases[i], cases[i].run(), want[i])
			}
		}()
	}
	wg.Wait()
}

// TestResultNotAliasedByLaterCompute checks that a Result owns its Loads:
// 100 further computes on the same shape, through every pooled engine,
// leave it untouched and never hand out its vector again.
func TestResultNotAliasedByLaterCompute(t *testing.T) {
	tr := torus.New(5, 3)
	lin := mustBuild(t, placement.Linear{C: 2}, tr)
	rnd := mustBuild(t, placement.Random{Count: 20, Seed: 4}, tr)
	for _, workers := range []int{1, 3} {
		opts := Options{Workers: workers}
		cases := []engineCase{
			{p: rnd, alg: routing.UDR{}, opts: opts, kind: "exchange"},
			{p: lin, alg: routing.ODR{}, opts: opts, kind: "exchange"},
			{p: lin, alg: routing.UDR{}, opts: opts, kind: "pattern"},
			{p: lin, alg: routing.ODR{}, opts: opts, kind: "valiant"},
		}
		for _, c := range cases {
			res := c.run()
			snapshot := slices.Clone(res.Loads)
			for i := 0; i < 100; i++ {
				later := cases[i%len(cases)].run()
				if &later.Loads[0] == &res.Loads[0] {
					t.Fatalf("%v: a later compute returned the same Loads vector", c)
				}
			}
			sameResult(t, c, res, &Result{Engine: res.Engine, Max: res.Max, MaxEdge: res.MaxEdge, Total: res.Total, Loads: snapshot})
		}
	}
}

// TestWarmComputeAllocatesOnlyItsAnswer checks the workspace's promise: on
// a warmed pool, a generic, symmetry or ring-flow compute at any worker
// count allocates its t.Edges() answer vector plus a constant number of
// small headers, whatever |P|, the orbit count and k^d. Each case pins the
// engine it exercises, so a change of dispatch cannot quietly drop one.
func TestWarmComputeAllocatesOnlyItsAnswer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const headers = 1024 // bytes of Result, closures and goroutine frames
	for _, c := range []struct {
		engineCase
		mode   FastPathMode
		engine string
	}{
		{engineCase{p: mustBuild(t, placement.Linear{}, torus.New(4, 2)), alg: routing.ODR{}}, FastPathAuto, EngineGeneric},
		{engineCase{p: mustBuild(t, placement.Random{Count: 12, Seed: 1}, torus.New(12, 2)), alg: routing.FAR{}}, FastPathAuto, EngineGeneric},
		{engineCase{p: mustBuild(t, placement.MultipleLinear{T: 3}, torus.New(16, 2)), alg: routing.FAR{}}, FastPathAuto, EngineSymmetry},
		{engineCase{p: mustBuild(t, placement.Linear{}, torus.New(12, 3)), alg: routing.ODR{}}, FastPathForce, EngineSymmetry},
		{engineCase{p: mustBuild(t, placement.MultipleLinear{T: 2}, torus.New(8, 3)), alg: routing.UDR{}}, FastPathForce, EngineSymmetry},
		{engineCase{p: mustBuild(t, placement.Linear{}, torus.New(12, 3)), alg: routing.ODR{}}, FastPathAuto, EngineRingFlow},
		{engineCase{p: mustBuild(t, placement.MultipleLinear{T: 2}, torus.New(8, 3)), alg: routing.UDR{}}, FastPathAuto, EngineRingFlow},
		{engineCase{p: mustBuild(t, placement.Random{Count: 64, Seed: 1}, torus.New(8, 3)), alg: routing.UDR{}}, FastPathAuto, EngineRingFlow},
		{engineCase{p: mustBuild(t, placement.Random{Count: 40, Seed: 1}, torus.New(6, 4)), alg: routing.ODRMulti{}}, FastPathAuto, EngineRingFlow},
	} {
		answer := leastAlloc(func() { answerSink = make([]float64, c.p.Torus().Edges()) })
		for _, workers := range []int{1, 2, 3} {
			c.opts, c.kind = Options{Workers: workers, FastPath: c.mode}, "exchange"
			if res := c.run(); res.Engine != c.engine {
				t.Fatalf("%v: engine %q, want %q", c.engineCase, res.Engine, c.engine)
			}
			if got := leastAlloc(func() { c.run() }); got > answer+headers {
				t.Errorf("%v: a warm compute allocates %d bytes, want its %d-byte answer plus at most %d",
					c.engineCase, got, answer, headers)
			}
		}
	}
}

var answerSink []float64

// leastAlloc returns the fewest heap bytes one of several calls of fn
// allocates, which discounts a collection that empties the pool between
// calls and, under the race detector, sync.Pool dropping one Put in four
// on purpose: a call after a drop regrows a workspace, and a call of two
// computes meets a drop almost every other time.
func leastAlloc(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for i := 0; i < 32; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		fn()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	return least
}
