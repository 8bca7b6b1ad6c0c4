// Package load computes the communication load of Definition 4: given a
// placement P and a routing algorithm A on T^d_k, the load of a directed
// edge l is the expected number of messages crossing l during one complete
// exchange (every processor sends one message to every other processor,
// each message picking a path uniformly from C^A_{p→q}).
//
// The engine fans the |P|·(|P|−1) ordered pairs across workers, each with a
// private per-edge accumulator that is merged once at the end, so there is
// no shared-write contention and results are deterministic for a fixed
// worker count. An exact big.Rat engine and a Monte-Carlo estimator provide
// independent cross-checks.
package load

import (
	"context"
	"fmt"
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
	// pair loop, EngineSymmetry for the translation fast path. Empty for
	// results wrapped via NewResultFromLoads.
	Engine string
	// Loads[e] is the expected number of messages crossing directed edge e.
	Loads []float64
	// Max is the maximum load E_max and MaxEdge attains it.
	Max     float64
	MaxEdge torus.Edge
	// Total is Σ_l E(l); it always equals the sum of Lee distances over all
	// ordered processor pairs (each message occupies exactly Lee(p,q) edges
	// in expectation).
	Total float64
	// Exact reports whether Max is E_max itself rather than an upper bound
	// on it. Every computed engine is exact; the analytic engine sets it
	// false when it answers from the Theorem 3–5 bounds, so bound-only
	// answers are never cross-checked (or cached) as equalities.
	Exact bool
	// Theorem names the closed form an analytic result came from
	// ("theorem2" … "theorem5"); empty for computed engines.
	Theorem string
}

// Engine names recorded in Result.Engine.
const (
	EngineGeneric  = "generic"
	EngineSymmetry = "symmetry"
	// EngineMonteCarlo labels estimates produced by the MonteCarlo sampler
	// (degraded service answers); MonteCarloResult has no Engine field, so
	// the name exists for consumers that mix exact and sampled loads.
	EngineMonteCarlo = "montecarlo"
	// EngineAnalytic labels O(1) closed-form answers from the Theorem 2–5
	// expressions. Analytic results carry no per-edge Loads vector (only
	// Max, plus Exact/Theorem); consumers that need edge detail must use a
	// computed engine.
	EngineAnalytic = "analytic"
)

// FastPathMode selects how Compute uses the translation-symmetry engine.
type FastPathMode int

const (
	// FastPathAuto (the zero value) uses the symmetry engine whenever it is
	// sound (translation-equivariant algorithm) and profitable (non-trivial
	// placement stabilizer), falling back to the generic pair loop otherwise.
	FastPathAuto FastPathMode = iota
	// FastPathOff always uses the generic pair loop.
	FastPathOff
	// FastPathForce uses the symmetry engine whenever it is sound, even for
	// a trivial (identity-only) stabilizer where it has no speed advantage.
	// Unsound combinations still fall back to the generic engine: soundness
	// is never negotiable.
	FastPathForce
)

// String names the mode for diagnostics.
func (m FastPathMode) String() string {
	switch m {
	case FastPathAuto:
		return "auto"
	case FastPathOff:
		return "off"
	case FastPathForce:
		return "force"
	default:
		return fmt.Sprintf("FastPathMode(%d)", int(m))
	}
}

// Options configures the engine.
type Options struct {
	// Workers is the number of goroutines; 0 means GOMAXPROCS.
	Workers int
	// FastPath selects the translation-symmetry fast path; the zero value
	// auto-detects. Both engines compute the same expectations, so results
	// agree up to floating-point summation order (~1e-12 relative).
	FastPath FastPathMode
	// CrossCheck recomputes every fast-path result with the generic engine
	// and panics on divergence beyond floating-point tolerance. Debugging
	// and experiment aid; no-op when the generic engine was used anyway.
	// For analytic results it gates Max instead: equality for exact cells,
	// the bound direction for Theorem 3–5 cells.
	CrossCheck bool
	// Analytic selects the closed-form O(1) tier, tried ahead of the fast
	// path. Off by default: see AnalyticMode.
	Analytic AnalyticMode
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
// record spans (load.compute → load.pairs / load.bases / load.scatter →
// load.merge) and the engine goroutines carry a pprof "engine" label. With
// no active trace the instrumentation collapses to nil-span no-ops, so the
// background-context Compute path stays allocation-identical to before.
func ComputeCtx(ctx context.Context, p *placement.Placement, alg routing.Algorithm, opts Options) *Result {
	fpComputeDispatch.InjectHard()
	workers := effectiveWorkers(opts.Workers, p.Size())
	ctx, sp := obs.Start(ctx, "load.compute")
	defer sp.End()
	sp.SetAttr("algorithm", alg.Name())
	sp.SetAttrInt("workers", int64(workers))
	sp.SetAttrInt("processors", int64(p.Size()))
	if res, ok := computeAnalytic(ctx, p, alg, opts.Analytic); ok {
		sp.SetAttr("engine", EngineAnalytic)
		if opts.CrossCheck {
			crossCheckAnalytic(res, computeGeneric(ctx, p, alg, workers))
		}
		return res
	}
	if opts.FastPath != FastPathOff {
		if res, ok := computeSymmetry(ctx, p, alg, workers, opts.FastPath == FastPathForce); ok {
			sp.SetAttr("engine", EngineSymmetry)
			if opts.CrossCheck {
				crossCheck(res, computeGeneric(ctx, p, alg, workers))
			}
			return res
		}
	}
	sp.SetAttr("engine", EngineGeneric)
	return computeGeneric(ctx, p, alg, workers)
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

// computeGeneric is the O(|P|²) ordered-pair loop. Workers must already be
// the effective count from effectiveWorkers.
func computeGeneric(ctx context.Context, p *placement.Placement, alg routing.Algorithm, workers int) *Result {
	t := p.Torus()
	procs := p.Nodes()

	partials := newPartials(workers, t.Edges())
	func() {
		_, psp := obs.Start(ctx, "load.pairs")
		defer psp.End()
		psp.SetAttrInt("sources", int64(len(procs)))
		withEngineLabel(ctx, EngineGeneric, func() {
			stripePairs(t, partials, len(procs), func(i int, local []float64, sc *routing.PairScratch) {
				src := procs[i]
				for _, dst := range procs {
					if dst != src {
						alg.AccumulatePair(t, src, dst, 1, local, sc)
					}
				}
			})
		})
	}()
	fpComputeMerge.InjectHard()
	return engineResult(ctx, p, alg, EngineGeneric, partials)
}

// stripe is the one fan-out of the package: it runs workers goroutines,
// hands worker w the items w, w+workers, w+2·workers, … of 0..n−1, and
// waits for all of them. Each worker accumulates into state of its own,
// indexed by w; the static stripe fixes which worker sees which item, so
// every worker's summation order — and, merged in worker order, the whole
// result — is a pure function of (workers, n).
func stripe(workers, n int, item func(w, i int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				item(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// newPartials returns one zeroed per-edge accumulator per worker.
func newPartials(workers, edges int) [][]float64 {
	partials := make([][]float64, workers)
	for w := range partials {
		partials[w] = make([]float64, edges)
	}
	return partials
}

// stripePairs stripes items 0..n−1 over one worker per accumulator in
// partials, each worker depositing its items into its own accumulator
// through its own pair scratch.
func stripePairs(t *torus.Torus, partials [][]float64, n int, deposit func(i int, local []float64, sc *routing.PairScratch)) {
	scratch := make([]*routing.PairScratch, len(partials))
	for w := range scratch {
		scratch[w] = routing.NewPairScratch(t)
	}
	stripe(len(partials), n, func(w, i int) { deposit(i, partials[w], scratch[w]) })
}

// mergePartials sums the workers' accumulators into a fresh slice in
// worker order.
func mergePartials(partials [][]float64) []float64 {
	loads := make([]float64, len(partials[0]))
	for _, local := range partials {
		for e, v := range local {
			loads[e] += v
		}
	}
	return loads
}

// engineResult merges a ComputeCtx engine's partials under a load.merge
// span and wraps them in a Result labelled with the engine.
func engineResult(ctx context.Context, p *placement.Placement, alg routing.Algorithm, engine string, partials [][]float64) *Result {
	_, msp := obs.Start(ctx, "load.merge")
	loads := mergePartials(partials)
	msp.End()
	res := newResult(p.Torus(), p, alg.Name(), loads)
	res.Engine = engine
	return res
}

// NewResultFromLoads wraps an externally computed per-edge load vector in
// a Result (used by the fault-rerouting engine, which redistributes loads
// itself). The slice is owned by the Result afterwards.
func NewResultFromLoads(t *torus.Torus, p *placement.Placement, algName string, loads []float64) *Result {
	return newResult(t, p, algName, loads)
}

func newResult(t *torus.Torus, p *placement.Placement, algName string, loads []float64) *Result {
	res := &Result{Torus: t, Placement: p, Algorithm: algName, Loads: loads, Exact: true}
	for e, v := range loads {
		res.Total += v
		if v > res.Max {
			res.Max = v
			res.MaxEdge = torus.Edge(e)
		}
	}
	return res
}

// Mean returns the average load over all directed edges; 0 for analytic
// results, which carry no per-edge vector.
func (r *Result) Mean() float64 {
	if len(r.Loads) == 0 {
		return 0
	}
	return r.Total / float64(len(r.Loads))
}

// MeanNonzero returns the average load over edges with nonzero load.
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

// NonzeroEdges returns the number of edges carrying any load.
func (r *Result) NonzeroEdges() int {
	n := 0
	for _, v := range r.Loads {
		if v > 0 {
			n++
		}
	}
	return n
}

// PerDimensionMax returns E_max restricted to edges of each dimension.
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

// String summarizes the result. Analytic results have no busiest edge to
// report and print the bound relation instead.
func (r *Result) String() string {
	if len(r.Loads) == 0 {
		rel := "≤"
		if r.Exact {
			rel = "="
		}
		return fmt.Sprintf("%s with %s: E_max %s %.4f (%s)",
			r.Placement, r.Algorithm, rel, r.Max, r.Engine)
	}
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
