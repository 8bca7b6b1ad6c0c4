// Package load computes the communication load of Definition 4: given a
// placement P and a routing algorithm A on T^d_k, the load of a directed
// edge l is the expected number of messages crossing l during one complete
// exchange (every processor sends one message to every other processor,
// each message picking a path uniformly from C^A_{p→q}).
//
// The generic engine fans the |P|·(|P|−1) ordered pairs across workers,
// each with a private per-edge accumulator that is merged once at the end,
// so there is no shared-write contention and results are deterministic for
// a fixed worker count. Faster engines answer the common cases without
// walking pairs: per-ring marginal sweeps for the dimension-ordered
// routings (ringflow.go) and translation symmetry for FAR (fastpath.go);
// the tests hold ring-flow to an exact big.Rat oracle. The paper's closed
// forms (analytic.go) are evaluated on their own, not through Compute:
// torusd's fast lane answers Theorem 2 from them. The Monte-Carlo
// estimator (montecarlo.go) samples one path per message instead of
// averaging over all of them; it serves torusload -mc.
package load

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"

	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// Result holds per-edge expected loads for one (placement, algorithm) pair.
type Result struct {
	Torus     *torus.Torus
	Placement *placement.Placement
	Algorithm string
	// Engine records which engine produced the loads: EngineGeneric for the
	// pair loop, EngineSymmetry for the translation fast path,
	// EngineRingFlow for the per-ring marginal sweep. Empty for results
	// wrapped via NewResultFromLoads. Every engine computes E_max itself,
	// never a bound on it.
	Engine string
	// Loads[e] is the expected number of messages crossing directed edge e.
	// It is nil for every EMaxCtx result; the other fields are filled
	// either way.
	Loads []float64
	// Max is the maximum load E_max and MaxEdge attains it.
	Max     float64
	MaxEdge torus.Edge
	// Total is Σ_l E(l); it always equals the sum of Lee distances over all
	// ordered processor pairs (each message occupies exactly Lee(p,q) edges
	// in expectation).
	Total float64
}

// Engine names recorded in Result.Engine.
const (
	EngineGeneric  = "generic"
	EngineSymmetry = "symmetry"
	// EngineRingFlow labels exact ODR, ODR-multi, ODROrder, UDR and
	// UDR-multi loads swept ring by ring from per-ring processor marginals
	// (ringflow.go).
	EngineRingFlow = "ring-flow"
	// EngineAnalytic labels the O(1) closed-form answers torusd's fast
	// lane serves from AnalyticAnswer. No Result carries it: Compute runs
	// only the engines above.
	EngineAnalytic = "analytic"
)

// FastPathMode selects how Compute uses the engines that avoid the
// generic pair loop: the translation-symmetry engine and the ring-flow
// engine.
type FastPathMode int

const (
	// FastPathAuto (the zero value) runs whichever computed engine the
	// cost model predicts cheapest among its candidates (dispatch.go): the
	// generic pair loop always, the ring-flow engine for ODR, ODR-multi,
	// ODROrder, UDR and UDR-multi, and the symmetry engine for FAR on a
	// placement whose builder records a non-trivial translation group.
	FastPathAuto FastPathMode = iota
	// FastPathOff always uses the generic pair loop.
	FastPathOff
)

// String names the mode for diagnostics.
func (m FastPathMode) String() string {
	switch m {
	case FastPathAuto:
		return "auto"
	case FastPathOff:
		return "off"
	default:
		return fmt.Sprintf("FastPathMode(%d)", int(m))
	}
}

// Options configures the engine.
type Options struct {
	// Workers is the number of goroutines; 0 means GOMAXPROCS.
	Workers int
	// FastPath selects the symmetry and ring-flow fast paths; the zero
	// value runs the cheapest engine. Every engine computes the same
	// expectations, so results agree up to floating-point summation order
	// (~1e-12 relative; MaxEngineDivergence measures it).
	FastPath FastPathMode
}

// effectiveWorkers resolves a requested worker count against the number of
// parallel items: <= 0 means GOMAXPROCS, and the count is capped at items
// (floor 1) before any partial buffers are sized, so the number of partial
// accumulators — and with it the floating-point merge order — is a pure
// function of (requested, items).
func effectiveWorkers(requested, items int) int {
	workers := requested
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = maxInt(1, items)
	}
	return workers
}

// Compute evaluates the exact expected load of every directed edge.
func Compute(p *placement.Placement, alg routing.Algorithm, opts Options) *Result {
	return ComputeCtx(context.Background(), p, alg, opts)
}

// ComputeCtx is Compute with observability threaded through ctx: when the
// context carries an active trace, the dispatch, engine stages, and merge
// record spans (load.compute → load.pairs / load.bases → load.merge; the
// ring-flow engine's marginals and sweeps record as load.pairs and its
// summary pass as load.merge, and the symmetry engine's fold by cosets
// records under load.merge with its summary pass) and the engine
// goroutines carry a pprof "engine" label. With no active trace the
// instrumentation collapses to nil-span no-ops, so the background-context
// Compute path stays allocation-identical to before.
func ComputeCtx(ctx context.Context, p *placement.Placement, alg routing.Algorithm, opts Options) *Result {
	res := compute(ctx, p, alg, opts, true)
	return &res
}

// EMaxCtx is ComputeCtx for callers that read only the summary: it runs
// the same dispatch and engines and returns the same Max, MaxEdge, Total
// and Engine bit for bit, but its Result has no Loads vector, so a warm
// engine allocates no per-edge vector at all. Per-edge consumers must use
// ComputeCtx.
//
// EMaxCtx is an inlinable wrapper around a dispatch that returns the
// Result by value, so a caller that copies the summary into a value of
// its own (core.AnalyzeCtx's Report) keeps the Result off the heap.
func EMaxCtx(ctx context.Context, p *placement.Placement, alg routing.Algorithm, opts Options) *Result {
	res := compute(ctx, p, alg, opts, false)
	return &res
}

// compute is the one dispatch behind ComputeCtx and EMaxCtx: it runs the
// engine choose predicts cheapest. keep says whether the Result owns a
// Loads vector.
func compute(ctx context.Context, p *placement.Placement, alg routing.Algorithm, opts Options, keep bool) Result {
	fpComputeDispatch.InjectHard()
	workers := effectiveWorkers(opts.Workers, p.Size())
	ctx, sp := obs.Start(ctx, "load.compute")
	defer sp.End()
	sp.SetAttr("algorithm", alg.Name())
	sp.SetAttrInt("workers", int64(workers))
	sp.SetAttrInt("processors", int64(p.Size()))
	pl := choose(p, alg, opts.FastPath)
	sp.SetAttr("engine", pl.engine)
	sp.SetAttrInt("predicted_us", int64(math.Ceil(pl.ns/1e3)))
	switch pl.engine {
	case EngineSymmetry:
		return computeSymmetry(ctx, p, alg, keep)
	case EngineRingFlow:
		return ringFlowResult(ctx, p, alg, pl.fam, workers, keep)
	}
	return computeGeneric(ctx, p, alg, workers, keep)
}

// withEngineLabel runs fn under a pprof "engine" label so CPU profiles
// attribute engine time, but only when observability is live (an active
// span or enabled counters): pprof.Do allocates its label set, and the
// allocation-free guarantee of the load engines is gated in CI.
func withEngineLabel(ctx context.Context, engine string, fn func()) {
	if obs.FromContext(ctx) == nil && !obs.CountersEnabled() {
		fn()
		return
	}
	pprof.Do(ctx, pprof.Labels("engine", engine), func(context.Context) { fn() })
}

// pairLoop is what the pair loop's workers read: source i sends to every
// other processor of procs, and worker w deposits into its own
// accumulator through its own pair scratch.
type pairLoop struct {
	t        *torus.Torus
	alg      routing.Algorithm
	procs    []torus.Node
	partials [][]float64
	scratch  []*routing.PairScratch
}

// computeGeneric is the O(|P|²) ordered-pair loop. Workers must already be
// the effective count from effectiveWorkers. Without keep the Result
// carries no Loads vector.
func computeGeneric(ctx context.Context, p *placement.Placement, alg routing.Algorithm, workers int, keep bool) Result {
	t := p.Torus()
	procs := p.Nodes()

	ws := getWorkspace()
	partials := ws.accumulators(workers, t.Edges(), keep)
	func() {
		_, psp := obs.Start(ctx, "load.pairs")
		defer psp.End()
		psp.SetAttrInt("sources", int64(len(procs)))
		withEngineLabel(ctx, EngineGeneric, func() {
			pl := pairLoop{t, alg, procs, partials, ws.pairScratch(t, workers)}
			stripe(workers, len(procs), pl, func(s pairLoop, w, i int) {
				src, local, sc := s.procs[i], s.partials[w], s.scratch[w]
				for _, dst := range s.procs {
					if dst != src {
						s.alg.AccumulatePair(s.t, src, dst, 1, local, sc)
					}
				}
			})
		})
	}()
	fpComputeMerge.InjectHard()
	res := engineResult(ctx, p, alg, EngineGeneric, partials, keep)
	ws.release()
	return res
}

// stripe is the one fan-out of the package: it runs workers goroutines,
// hands worker w the items w, w+workers, w+2·workers, … of 0..n−1, and
// waits for all of them. A single worker runs inline, in item order. Each
// worker accumulates into state of its own, indexed by w; the static
// stripe fixes which worker sees which item, so every worker's summation
// order — and, merged in worker order, the whole result — is a pure
// function of (workers, n).
//
// item receives everything it reads through s and captures nothing, so it
// is a static function value: only the multi-worker branch hands s to
// other goroutines, and a one-worker compute allocates nothing here.
// Callers pass in s only values that already live on the heap (workspace
// buffers, the placement, zero-size routings).
func stripe[S any](workers, n int, s S, item func(s S, w, i int)) {
	if workers == 1 {
		for i := 0; i < n; i++ {
			item(s, 0, i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go stripeWorker(&wg, w, workers, n, s, item)
	}
	wg.Wait()
}

// stripeWorker runs worker w's items of stripe.
func stripeWorker[S any](wg *sync.WaitGroup, w, workers, n int, s S, item func(s S, w, i int)) {
	defer wg.Done()
	for i := w; i < n; i += workers {
		item(s, w, i)
	}
}

// mergePartials folds workers 1..W−1's accumulators into worker 0's in
// worker order and returns it. That is bit-identical to summing them all
// into a zeroed vector: 0 + x = x exactly for every x but −0, and an
// accumulator that starts at +0 never becomes −0 under addition.
func mergePartials(partials [][]float64) []float64 {
	loads := partials[0]
	for _, local := range partials[1:] {
		for e, v := range local {
			loads[e] += v
		}
	}
	return loads
}

// engineResult merges a ComputeCtx engine's partials under a load.merge
// span and wraps them in a Result labelled with the engine. Without keep
// the merged vector is the workspace's: the Result reads its summary from
// it here, before the caller releases the workspace, and drops it.
func engineResult(ctx context.Context, p *placement.Placement, alg routing.Algorithm, engine string, partials [][]float64, keep bool) Result {
	_, msp := obs.Start(ctx, "load.merge")
	loads := mergePartials(partials)
	msp.End()
	res := newResult(p.Torus(), p, alg.Name(), loads)
	res.Engine = engine
	if !keep {
		res.Loads = nil
	}
	return res
}

// NewResultFromLoads wraps an externally computed per-edge load vector in
// a Result (used by the fault-rerouting engine, which redistributes loads
// itself). The slice is owned by the Result afterwards.
func NewResultFromLoads(t *torus.Torus, p *placement.Placement, algName string, loads []float64) *Result {
	res := newResult(t, p, algName, loads)
	return &res
}

func newResult(t *torus.Torus, p *placement.Placement, algName string, loads []float64) Result {
	res := Result{Torus: t, Placement: p, Algorithm: algName, Loads: loads}
	for e, v := range loads {
		res.Total += v
		if v > res.Max {
			res.Max = v
			res.MaxEdge = torus.Edge(e)
		}
	}
	return res
}

// Mean returns the average load over all directed edges, Total / |E|. It
// needs no per-edge vector.
func (r *Result) Mean() float64 {
	return r.Total / float64(r.Torus.Edges())
}

// MeanNonzero returns the average load over edges with nonzero load. It
// needs the Loads vector of a ComputeCtx result.
func (r *Result) MeanNonzero() float64 {
	sum, n := 0.0, 0
	for _, v := range r.Loads {
		if v > 0 {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// NonzeroEdges returns the number of edges carrying any load. It needs the
// Loads vector of a ComputeCtx result.
func (r *Result) NonzeroEdges() int {
	n := 0
	for _, v := range r.Loads {
		if v > 0 {
			n++
		}
	}
	return n
}

// PerDimensionMax returns E_max restricted to edges of each dimension. It
// needs the Loads vector of a ComputeCtx result.
func (r *Result) PerDimensionMax() []float64 {
	out := make([]float64, r.Torus.D())
	for e, v := range r.Loads {
		j := r.Torus.EdgeDim(torus.Edge(e))
		if v > out[j] {
			out[j] = v
		}
	}
	return out
}

// String summarizes the result, with or without its Loads vector: E_max,
// the busiest edge and the mean load.
func (r *Result) String() string {
	return fmt.Sprintf("%s with %s: E_max=%.4f at %s, mean=%.4f",
		r.Placement, r.Algorithm, r.Max, r.Torus.EdgeString(r.MaxEdge), r.Mean())
}

// ExpectedTotal returns the analytically required value of Total: the sum
// of Lee distances over all ordered processor pairs. Compute results must
// match it exactly up to floating point error (load conservation).
func ExpectedTotal(p *placement.Placement) float64 {
	t := p.Torus()
	procs := p.Nodes()
	total := 0
	for _, src := range procs {
		for _, dst := range procs {
			if dst != src {
				total += t.LeeDistance(src, dst)
			}
		}
	}
	return float64(total)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
