package load

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// emaxCase is one (placement, routing, options) triple run through both
// EMaxCtx and ComputeCtx.
type emaxCase struct {
	p    *placement.Placement
	alg  routing.Algorithm
	opts Options
}

func (c emaxCase) String() string {
	return fmt.Sprintf("%s/%s on %s (workers %d, fast path %v)",
		c.p.Name(), c.alg.Name(), c.p.Torus(), c.opts.Workers, c.opts.FastPath)
}

func (c emaxCase) emax() *Result {
	return EMaxCtx(context.Background(), c.p, c.alg, c.opts)
}

// sameSummary fails unless got, an EMaxCtx result, carries no Loads and
// equals want's summary bit for bit.
func sameSummary(t *testing.T, c emaxCase, got, want *Result) {
	t.Helper()
	if got.Loads != nil {
		t.Errorf("%v: EMaxCtx returned a %d-edge Loads vector, want nil", c, len(got.Loads))
	}
	if math.Float64bits(got.Max) != math.Float64bits(want.Max) || got.MaxEdge != want.MaxEdge ||
		math.Float64bits(got.Total) != math.Float64bits(want.Total) || got.Engine != want.Engine {
		t.Errorf("%v: E_max %v at %d, total %v, engine %q; ComputeCtx gives %v at %d, %v, %q",
			c, got.Max, got.MaxEdge, got.Total, got.Engine,
			want.Max, want.MaxEdge, want.Total, want.Engine)
	}
}

// emaxCases spans every routing, the generic and cost-model dispatches
// and workers 1–3 over random, linear and multiple linear placements on
// T²₈, T²₁₂, T³₈ and T³₄.
func emaxCases(t *testing.T) []emaxCase {
	modes := []Options{
		{FastPath: FastPathOff},
		{},
	}
	var cases []emaxCase
	for _, sh := range []struct{ k, d int }{{8, 2}, {12, 2}, {8, 3}, {4, 3}} {
		tr := torus.New(sh.k, sh.d)
		for _, spec := range []placement.Spec{
			placement.Random{Count: tr.Nodes() / 16, Seed: int64(sh.k*10 + sh.d)},
			placement.Linear{C: 1},
			placement.MultipleLinear{T: 2},
		} {
			p := mustBuild(t, spec, tr)
			for _, alg := range algs {
				for _, opts := range modes {
					for workers := 1; workers <= 3; workers++ {
						opts.Workers = workers
						cases = append(cases, emaxCase{p: p, alg: alg, opts: opts})
					}
				}
			}
		}
	}
	return cases
}

// TestEMaxMatchesCompute checks that EMaxCtx is ComputeCtx without the
// vector: the same engine, Max, MaxEdge and Total bit for bit, and nil
// Loads, through every dispatch; and that the cost model's engine agrees
// with the generic pair loop.
func TestEMaxMatchesCompute(t *testing.T) {
	for _, c := range emaxCases(t) {
		want := ComputeCtx(context.Background(), c.p, c.alg, c.opts)
		sameSummary(t, c, c.emax(), want)
		if c.opts.FastPath == FastPathAuto {
			checkAgainstGeneric(t, want, c.alg)
		}
	}
}

// TestWarmEMaxAllocatesNoVector checks that on a warmed pool an EMaxCtx
// through any computed engine allocates only small headers: worker 0's
// accumulator, or the ring-flow answer, comes from the workspace like the
// rest of its buffers. Each single case pins the engine it exercises. The
// ring-flow pairs alternate T²₁₂ and T³₈, so a
// workspace sized for one shape must serve the other without regrowing.
func TestWarmEMaxAllocatesNoVector(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const headers = 1024 // bytes of Result, closures and goroutine frames
	tr := torus.New(8, 3)
	lin := mustBuild(t, placement.Linear{}, tr)
	rnd := mustBuild(t, placement.Random{Count: 64, Seed: 1}, tr)
	rnd2 := mustBuild(t, placement.Random{Count: 12, Seed: 1}, torus.New(12, 2))
	multi := mustBuild(t, placement.MultipleLinear{T: 3}, torus.New(16, 2))
	for _, workers := range []int{1, 2, 3} {
		opts := Options{Workers: workers}
		for _, c := range []struct {
			emaxCase
			engine string
		}{
			{emaxCase{p: lin, alg: routing.ODR{}, opts: opts}, EngineRingFlow},
			{emaxCase{p: rnd, alg: routing.UDR{}, opts: opts}, EngineRingFlow},
			{emaxCase{p: lin, alg: routing.FAR{}, opts: opts}, EngineSymmetry},
			{emaxCase{p: multi, alg: routing.FAR{}, opts: opts}, EngineSymmetry},
			{emaxCase{p: rnd, alg: routing.ODROrder{Order: []int{2, 0, 1}}, opts: opts}, EngineRingFlow},
			{emaxCase{p: lin, alg: routing.UDR{}, opts: Options{Workers: workers, FastPath: FastPathOff}}, EngineGeneric},
		} {
			if res := c.emax(); res.Engine != c.engine {
				t.Fatalf("%v: engine %q, want %q", c.emaxCase, res.Engine, c.engine)
			}
			if got := leastAlloc(func() { c.emax() }); got >= headers {
				t.Errorf("%v: a warm EMaxCtx allocates %d bytes, want < %d (the vector is %d)",
					c, got, headers, 8*tr.Edges())
			}
		}
		for _, alg := range []routing.Algorithm{routing.ODRMulti{}, routing.UDRMulti{}} {
			small, big := emaxCase{p: rnd2, alg: alg, opts: opts}, emaxCase{p: rnd, alg: alg, opts: opts}
			if got := leastAlloc(func() { small.emax(); big.emax() }); got >= 2*headers {
				t.Errorf("%v then %v: two warm EMaxCtx calls allocate %d bytes, want < %d",
					small, big, got, 2*headers)
			}
		}
	}
}

// TestEMaxConcurrentNoAlias has 8 goroutines share the workspace pool over
// EMaxCtx calls on tori of different shapes, each in its own random order.
// The summary is read from a pooled vector, so reading it after the
// workspace went back to the pool, or from a vector another compute still
// writes, changes some answer: every one must equal a fresh ComputeCtx.
func TestEMaxConcurrentNoAlias(t *testing.T) {
	shapes := []struct{ k, d int }{{6, 3}, {3, 2}, {5, 3}, {4, 1}, {4, 3}, {6, 2}, {3, 3}, {5, 2}}
	modes := []FastPathMode{FastPathAuto, FastPathOff}
	rng := rand.New(rand.NewSource(18))
	var cases []emaxCase
	for i := 0; i < 32; i++ {
		sh := shapes[i%len(shapes)]
		tr := torus.New(sh.k, sh.d)
		specs := []placement.Spec{
			placement.Linear{C: rng.Intn(sh.k)},
			placement.MultipleLinear{T: 2},
			placement.Random{Count: 2 + rng.Intn(tr.Nodes()/2), Seed: rng.Int63()},
		}
		p, err := specs[rng.Intn(len(specs))].Build(tr)
		if err != nil {
			p = mustBuild(t, placement.Linear{}, tr)
		}
		cases = append(cases, emaxCase{
			p:    p,
			alg:  algs[rng.Intn(len(algs))],
			opts: Options{Workers: 1 + rng.Intn(3), FastPath: modes[rng.Intn(len(modes))]},
		})
	}
	want := make([]*Result, len(cases))
	for i, c := range cases {
		want[i] = ComputeCtx(context.Background(), c.p, c.alg, c.opts)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		order := rand.New(rand.NewSource(int64(g))).Perm(4 * len(cases))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				i %= len(cases)
				sameSummary(t, cases[i], cases[i].emax(), want[i])
			}
		}()
	}
	wg.Wait()
}

// TestSummaryWithoutLoads checks that a result without its vector still
// summarises: Mean is Total / |E|, and String names the busiest edge.
func TestSummaryWithoutLoads(t *testing.T) {
	tr := torus.New(6, 2)
	p := mustBuild(t, placement.Random{Count: 9, Seed: 3}, tr)
	full := Compute(p, routing.UDR{}, Options{Workers: 1})
	bare := EMaxCtx(context.Background(), p, routing.UDR{}, Options{Workers: 1})
	if bare.Mean() != full.Mean() || bare.Mean() <= 0 {
		t.Errorf("vector-less Mean %v, want %v", bare.Mean(), full.Mean())
	}
	if bare.String() != full.String() {
		t.Errorf("vector-less String %q, want %q", bare.String(), full.String())
	}
}
