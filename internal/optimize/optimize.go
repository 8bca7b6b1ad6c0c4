// Package optimize searches for low-load placements directly, inverting the
// paper's analysis direction: instead of certifying a given placement
// against the §4 lower bounds, it looks for node subsets of fixed size
// minimizing E_max under a routing algorithm. Three complementary
// strategies share one Result shape:
//
//   - Anneal / AnnealCtx: seeded simulated annealing (Metropolis acceptance,
//     geometric cooling) over single-processor relocations, each priced
//     incrementally in O(|P|) pair kernels. Scales to any torus the load
//     engine handles; E28 and E33 measure that annealed
//     placements converge to the linear construction's E_max from above.
//   - BranchAndBound: exhaustive subset search on small tori, pruned by the
//     monotonicity of edge loads (adding a processor never lowers any
//     edge's load) against the best incumbent, with translation symmetry
//     reduction for equivariant algorithms and the Theorem 2 / §4 analytic
//     floor as the early-exit bound. When it completes within budget the
//     returned placement is a proven optimum (Result.Proven).
//   - LeeSeed: the constructive strategy — a t-hop Lee-sphere tiling seed
//     built by farthest-point sampling, spreading processors so their Lee
//     balls of the largest feasible radius pack the torus. Instant, and the
//     natural warm start for the other two (Config.Start).
//
// Every strategy stamps per-strategy provenance (Strategy, Visited/Pruned
// counters, Proven) and the gap to the best §4 lower bound certified for
// the returned placement (LowerBound, Gap), computed from internal/bounds.
package optimize

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"torusnet/internal/core"
	"torusnet/internal/load"
	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// Strategy names, stamped into Result.Strategy and accepted by the service
// layer's /v1/optimize endpoint.
const (
	// StrategyAnneal is seeded simulated annealing.
	StrategyAnneal = "anneal"
	// StrategyBranchBound is the exhaustive branch-and-bound search.
	StrategyBranchBound = "bnb"
	// StrategyLeeSphere is the constructive Lee-sphere tiling seed.
	StrategyLeeSphere = "leesphere"
)

// Config parameterizes a search run. Anneal reads Size, Steps, Seed, the
// temperature pair, Workers, Start, and the progress fields; BranchAndBound
// reads Size, Workers, Start, MaxVisited, and the progress fields; LeeSeed
// reads only Size.
type Config struct {
	// Size is the number of processors to place.
	Size int
	// Steps is the number of proposed annealing moves.
	Steps int
	// Seed drives the proposal and acceptance randomness.
	Seed int64
	// InitialTemp and FinalTemp bound the geometric cooling schedule.
	// Zero values default to 2.0 and 0.01 (in units of E_max).
	InitialTemp, FinalTemp float64
	// Workers for the load engine.
	Workers int
	// Start optionally seeds the search with an explicit placement (Size
	// distinct nodes): annealing starts from it instead of a random
	// placement, and branch-and-bound adopts its E_max as the initial
	// incumbent. Nil means a random start (anneal) or a Lee-sphere seed
	// (branch-and-bound).
	Start []torus.Node
	// Progress, when non-nil, receives a snapshot every ProgressEvery units
	// of work (annealing steps, branch-and-bound node expansions). The
	// callback runs on the searching goroutine; it must be fast and must
	// not retain the snapshot's Best placement.
	Progress func(Progress)
	// ProgressEvery is the work interval between Progress callbacks;
	// 0 means max(1, Steps/20) for annealing and 65536 expansions for
	// branch-and-bound.
	ProgressEvery int
	// MaxVisited bounds branch-and-bound node expansions; past it the
	// search returns the incumbent with Proven=false. 0 means
	// DefaultMaxVisited.
	MaxVisited int64
}

// Progress is one in-flight snapshot of a search, delivered through
// Config.Progress.
type Progress struct {
	// Strategy identifies the searcher emitting the snapshot.
	Strategy string
	// Step and Steps report annealing progress (proposed moves so far out
	// of the total schedule); zero for other strategies.
	Step, Steps int
	// Visited and Pruned report branch-and-bound progress; zero elsewhere.
	Visited, Pruned int64
	// BestEMax is the best energy found so far.
	BestEMax float64
}

// Result reports a search outcome in a strategy-independent shape.
type Result struct {
	// Best is the best placement found.
	Best *placement.Placement
	// BestEMax is Best's E_max under the searched algorithm, recomputed by
	// the load engine so it is bit-identical to load.Compute on Best.
	BestEMax float64
	// StartEMax is the E_max of the search's starting point (the random or
	// seeded placement for annealing, the initial incumbent for
	// branch-and-bound, the seed itself for LeeSeed).
	StartEMax float64
	// Accepted counts accepted annealing moves; zero for other strategies.
	Accepted int
	// Steps is the executed annealing schedule length; zero elsewhere.
	Steps int
	// Strategy names the searcher that produced this result (StrategyAnneal,
	// StrategyBranchBound, StrategyLeeSphere).
	Strategy string
	// LowerBound is the best §4 lower bound certified for Best (Blaum,
	// bisection-cut, and — for uniform placements — the improved density
	// bound), computed from internal/bounds.
	LowerBound float64
	// Gap is BestEMax − LowerBound: how far above its own certificate the
	// returned placement sits. Zero means provably optimal.
	Gap float64
	// Proven reports that the search exhausted the (symmetry-reduced)
	// space within budget, so BestEMax is the exact optimum. Only
	// branch-and-bound can set it.
	Proven bool
	// Visited and Pruned count branch-and-bound node expansions and
	// bound-pruned subtrees; zero for other strategies.
	Visited, Pruned int64
}

// energy computes E_max of a node subset under alg through the load engine,
// traced as a child of ctx's span.
func energy(ctx context.Context, t *torus.Torus, nodes []torus.Node, alg routing.Algorithm, workers int) float64 {
	p := placement.New(t, nodes, "search")
	return load.EMaxCtx(ctx, p, alg, load.Options{Workers: workers}).Max
}

// checkStart validates a caller-supplied start placement: exactly size
// distinct nodes of t. placement.New would silently drop duplicates, and
// the incremental loads would count their pairs twice.
func checkStart(t *torus.Torus, start []torus.Node, size int) error {
	if len(start) != size {
		return fmt.Errorf("optimize: Start has %d nodes, want Size = %d", len(start), size)
	}
	seen := make([]bool, t.Nodes())
	for _, u := range start {
		if u < 0 || int(u) >= t.Nodes() {
			return fmt.Errorf("optimize: Start node %d outside the torus's %d nodes", u, t.Nodes())
		}
		if seen[u] {
			return fmt.Errorf("optimize: Start node %d appears twice", u)
		}
		seen[u] = true
	}
	return nil
}

// finish stamps the shared provenance fields on res: the best §4 lower
// bound certified for res.Best and the gap above it. Returns res.
func finish(res *Result) *Result {
	res.LowerBound = core.EvaluateBounds(res.Best).BestLowerBound()
	res.Gap = res.BestEMax - res.LowerBound
	return res
}

// Anneal searches for a placement of cfg.Size processors minimizing E_max
// under the algorithm. Moves relocate one processor to a random empty
// node; acceptance follows Metropolis with geometric cooling. The search
// is deterministic for a fixed seed. It is the pre-context shim for
// AnnealCtx and keeps the original panic-on-bad-input contract.
func Anneal(t *torus.Torus, alg routing.Algorithm, cfg Config) *Result {
	res, err := AnnealCtx(context.Background(), t, alg, cfg)
	if err != nil {
		// Unreachable: a background context never cancels, and
		// cancellation is AnnealCtx's only error path.
		panic(err)
	}
	return res
}

// AnnealCtx is Anneal with cancellation: the loop observes ctx between
// moves and, when cancelled, returns the best placement found so far
// together with ctx's error. Progress callbacks fire per Config.Progress.
// The move sequence for a fixed seed is identical to Anneal's. It panics
// on a size out of range or on a Start that is not cfg.Size distinct
// nodes of t.
//
// Each move is priced incrementally on one loadState: checkpoint the loads,
// remove the moved processor's pairs, add the target's, take the max —
// one copy of the edge loads, 4(|P|−1) pair kernels and one scan of the
// edges, with no allocation. A rejected move reverts the loads exactly; an
// accepted one commits them. Energies are
// compared within loadEps, and Result.StartEMax and Result.BestEMax come
// from the load engine.
func AnnealCtx(ctx context.Context, t *torus.Torus, alg routing.Algorithm, cfg Config) (*Result, error) {
	if cfg.Size < 2 || cfg.Size > t.Nodes() {
		panic("optimize: placement size out of range")
	}
	if len(cfg.Start) > 0 {
		if err := checkStart(t, cfg.Start, cfg.Size); err != nil {
			panic(err.Error())
		}
	}
	steps := cfg.Steps
	if steps <= 0 {
		steps = 200
	}
	t0 := cfg.InitialTemp
	if t0 <= 0 {
		t0 = 2.0
	}
	t1 := cfg.FinalTemp
	if t1 <= 0 {
		t1 = 0.01
	}
	ctx, sp := obs.Start(ctx, "optimize.anneal")
	defer sp.End()
	sp.SetAttrInt("size", int64(cfg.Size))
	sp.SetAttrInt("steps", int64(steps))
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Start from the caller's seed placement, else a random one. The
	// random permutation is drawn either way so the downstream proposal
	// stream (and with it every E28 table) is seed-stable.
	perm := rng.Perm(t.Nodes())
	current := make([]torus.Node, cfg.Size)
	occupied := make([]bool, t.Nodes())
	if len(cfg.Start) > 0 {
		copy(current, cfg.Start)
	} else {
		for i := 0; i < cfg.Size; i++ {
			current[i] = torus.Node(perm[i])
		}
	}
	st := newLoadState(t, alg)
	for i, u := range current {
		occupied[u] = true
		st.add(u, current[:i])
	}
	st.commit()
	cur := st.max()
	bestE := cur
	res := &Result{StartEMax: energy(ctx, t, current, alg, cfg.Workers), Steps: steps, Strategy: StrategyAnneal}
	best := append([]torus.Node(nil), current...)
	stop := func() *Result {
		res.Best = placement.New(t, best, "annealed")
		// Recompute through the load engine so the reported number is
		// bit-identical to load.Compute on Best.
		res.BestEMax = energy(ctx, t, best, alg, cfg.Workers)
		return finish(res)
	}

	every := cfg.ProgressEvery
	if every <= 0 {
		every = steps / 20
		if every < 1 {
			every = 1
		}
	}
	cool := math.Pow(t1/t0, 1/math.Max(1, float64(steps-1)))
	temp := t0
	for step := 0; step < steps; step++ {
		if err := ctx.Err(); err != nil {
			res.Steps = step
			sp.SetAttr("outcome", "cancelled")
			return stop(), err
		}
		// Propose: move one processor to a random free node.
		pi := rng.Intn(cfg.Size)
		var target torus.Node
		for {
			target = torus.Node(rng.Intn(t.Nodes()))
			if !occupied[target] {
				break
			}
		}
		old := current[pi]
		cp := st.checkpoint()
		next := relocate(st, current, pi, target)
		accept := next <= cur+loadEps || rng.Float64() < math.Exp((cur-next)/temp)
		if accept {
			st.commit()
			occupied[old] = false
			occupied[target] = true
			cur = next
			res.Accepted++
			if cur < bestE-loadEps {
				bestE = cur
				copy(best, current)
			}
		} else {
			st.revert(cp)
			current[pi] = old
		}
		temp *= cool
		if cfg.Progress != nil && (step+1)%every == 0 {
			cfg.Progress(Progress{Strategy: StrategyAnneal, Step: step + 1, Steps: steps, BestEMax: bestE})
		}
	}
	return stop(), nil
}

// relocate moves nodes[i] to target in st — removing the old node's pairs
// with the others, then adding the target's — and returns the new maximum
// edge load. The caller checkpoints st first and reverts or commits after.
func relocate(st *loadState, nodes []torus.Node, i int, target torus.Node) float64 {
	st.remove(nodes[i], nodes)
	nodes[i] = target
	return st.add(target, nodes)
}
