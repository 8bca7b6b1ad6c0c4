package torusnet

import (
	"context"

	"torusnet/internal/bisect"
	"torusnet/internal/bounds"
	"torusnet/internal/bsp"
	"torusnet/internal/core"
	"torusnet/internal/faults"
	"torusnet/internal/load"
	"torusnet/internal/obs"
	"torusnet/internal/optimize"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/service"
	"torusnet/internal/simnet"
	"torusnet/internal/torus"
	"torusnet/internal/wormhole"
)

// Torus is the d-dimensional k-torus T^d_k (Definition 1).
type Torus = torus.Torus

// NewTorus constructs T^d_k. It panics for invalid parameters: k < 2,
// d < 1, or k^d beyond MaxNodes.
func NewTorus(k, d int) *Torus { return torus.New(k, d) }

// MaxNodes bounds the node count of any torus this package will build.
const MaxNodes = torus.MaxNodes

// Mod returns a normalized to [0, k): the canonical residue helper for
// torus coordinates, correct for negative a (unlike Go's % operator).
func Mod(a, k int) int { return torus.Mod(a, k) }

// Volume returns k^d, refusing values beyond MaxNodes instead of silently
// overflowing int.
func Volume(k, d int) (int, error) { return torus.Volume(k, d) }

// Placement types and specs.
type (
	// Placement is a set of processor nodes on one torus (Definition 2).
	Placement = placement.Placement
	// PlacementSpec generates P_{d,k} for any torus.
	PlacementSpec = placement.Spec
	// Linear is the Definition 10 linear placement Σ c_i·p_i ≡ C (mod k).
	Linear = placement.Linear
	// MultipleLinear is the union of t consecutive linear placements (§5).
	MultipleLinear = placement.MultipleLinear
	// Full populates every node (the classical torus).
	Full = placement.Full
	// Random places processors uniformly at random.
	Random = placement.Random
)

// Routing algorithms.
type (
	// RoutingAlgorithm specifies shortest-path sets C^A_{p→q} (Definition 3).
	RoutingAlgorithm = routing.Algorithm
	// ODR is restricted Ordered Dimensional Routing (§6).
	ODR = routing.ODR
	// UDR is Unordered Dimensional Routing (§7).
	UDR = routing.UDR
)

// Load computation.
type (
	// LoadResult holds per-edge expected loads and E_max (Definitions 4/5).
	LoadResult = load.Result
	// LoadOptions configures the engine (worker count, fast-path mode,
	// cross-checking).
	LoadOptions = load.Options
)

// ComputeLoad evaluates the exact expected load of every directed edge
// under one complete exchange.
func ComputeLoad(p *Placement, a RoutingAlgorithm, opts LoadOptions) *LoadResult {
	return load.Compute(p, a, opts)
}

// ComputeLoadCtx is ComputeLoad with observability threaded through ctx:
// when the context carries an active trace (see StartSpan), the engine
// dispatch, per-engine stages, and merge record spans and the worker
// goroutines carry pprof labels. With no active trace it is
// allocation-identical to ComputeLoad.
func ComputeLoadCtx(ctx context.Context, p *Placement, a RoutingAlgorithm, opts LoadOptions) *LoadResult {
	return load.ComputeCtx(ctx, p, a, opts)
}

// Traffic patterns beyond complete exchange.
type (
	// TrafficPattern generates a traffic matrix over a placement.
	TrafficPattern = load.Pattern
	// PatternCompleteExchange is all-to-all personalized communication.
	PatternCompleteExchange = load.CompleteExchange
	// PatternTranspose is coordinate-reversal (matrix transposition, d=2).
	PatternTranspose = load.Transpose
	// PatternShift is a fixed-offset cyclic shift.
	PatternShift = load.Shift
	// PatternHotSpot funnels every processor into one destination.
	PatternHotSpot = load.HotSpot
	// PatternRandomPairs samples an irregular traffic matrix.
	PatternRandomPairs = load.RandomPairs
)

// ComputePatternLoad evaluates a traffic pattern's exact expected loads.
func ComputePatternLoad(p *Placement, pat TrafficPattern, a RoutingAlgorithm, opts LoadOptions) *LoadResult {
	return load.ComputePattern(p, pat, a, opts)
}

// Lower bounds (package bounds).
var (
	// BisectionBound is Eq. 8.
	BisectionBound = bounds.Bisection
	// MaxPlacementSize is the Eq. 9 ceiling 12·d·c1·k^{d−1}.
	MaxPlacementSize = bounds.MaxPlacementSize
)

// Cut is a partition of the torus with respect to a placement.
type Cut = bisect.Cut

// DimensionCut is the Theorem 1 construction (width 4k^{d−1}).
func DimensionCut(p *Placement, dim int) *Cut { return bisect.DimensionCut(p, dim) }

// SweepBisect is the appendix hyperplane-sweep construction (balanced for
// any placement, width ≤ 6dk^{d−1}).
func SweepBisect(p *Placement) *Cut { return bisect.Sweep(p) }

// BestSweepBisect scans every balanced hyperplane position and returns the
// minimum-width sweep cut.
func BestSweepBisect(p *Placement) *Cut { return bisect.BestSweep(p) }

// Analysis.
type (
	// Report is the full optimality analysis of a placement + algorithm.
	Report = core.Report
	// FaultReport aggregates §7 fault-tolerance metrics.
	FaultReport = faults.Report
)

// Analyze runs loads, bounds, bisections, and optimality ratios in one call.
// The report's Load carries E_max, its busiest edge and the total but no
// per-edge vector (Load.Loads is nil); per-edge loads come from
// ComputeLoad.
func Analyze(p *Placement, a RoutingAlgorithm, workers int) *Report {
	return core.Analyze(p, a, workers)
}

// AnalyzeFaults computes route multiplicity and critical-link statistics.
func AnalyzeFaults(p *Placement, a RoutingAlgorithm, workers int) *FaultReport {
	return faults.Analyze(p, a, workers)
}

// RandomFailureBrokenPairs fails `failures` random links and counts the
// ordered processor pairs left without any route under the algorithm.
func RandomFailureBrokenPairs(p *Placement, a RoutingAlgorithm, failures int, seed int64) int {
	return faults.RandomFailureTrial(p, a, failures, seed)
}

// Simulation.
type (
	// SimConfig parameterizes a cycle-accurate simulation run.
	SimConfig = simnet.Config
	// SimStats reports a completed complete exchange.
	SimStats = simnet.Stats
)

// Simulate runs one complete exchange on the store-and-forward simulator.
func Simulate(cfg SimConfig) *SimStats { return simnet.Run(cfg) }

// Wormhole switching (flit-level, virtual channels, dateline scheme).
type (
	// WormholeConfig parameterizes a flit-level simulation run.
	WormholeConfig = wormhole.Config
	// WormholeStats reports a wormhole complete exchange.
	WormholeStats = wormhole.Stats
)

// SimulateWormhole runs one complete exchange under wormhole switching.
func SimulateWormhole(cfg WormholeConfig) *WormholeStats { return wormhole.Run(cfg) }

// BSP cost model.
type (
	// BSPParams are the fitted gap/latency of a placement.
	BSPParams = bsp.Params
	// BSPSample is one measured superstep.
	BSPSample = bsp.Sample
)

// EstimateBSP fits cycles(h) = g·h + L over simulated h-relations.
func EstimateBSP(p *Placement, a RoutingAlgorithm, hmax int, seed int64) (BSPParams, []BSPSample) {
	return bsp.Estimate(p, a, hmax, seed)
}

// Placement search: three strategies behind one Result shape — simulated
// annealing (any torus), exhaustive branch-and-bound (small tori, proves
// optimality), and constructive Lee-sphere seeding. Every result is stamped
// with the best §4 lower bound and its gap to it; see OPTIMIZE.md.
type (
	// AnnealConfig parameterizes the placement searches (size, budget, seed).
	AnnealConfig = optimize.Config
	// AnnealResult reports a search outcome with lower-bound provenance.
	AnnealResult = optimize.Result
	// SearchProgress is the periodic callback payload of a running search.
	SearchProgress = optimize.Progress
)

// AnnealPlacementCtx searches for a low-E_max placement of fixed size by
// simulated annealing. On ctx cancellation it returns the best placement
// found so far alongside the context error.
func AnnealPlacementCtx(ctx context.Context, t *Torus, a RoutingAlgorithm, cfg AnnealConfig) (*AnnealResult, error) {
	return optimize.AnnealCtx(ctx, t, a, cfg)
}

// BranchBoundPlacement exhaustively searches all size-|P| placements on a
// small torus (at most 512 nodes), pruning by monotone partial loads;
// Result.Proven reports whether the optimum is certified.
func BranchBoundPlacement(ctx context.Context, t *Torus, a RoutingAlgorithm, cfg AnnealConfig) (*AnnealResult, error) {
	return optimize.BranchAndBound(ctx, t, a, cfg)
}

// LeeSeedPlacement builds a constructive Lee-sphere-tiling placement by
// greedy farthest-point sampling — a deterministic seed for the other
// strategies, and a decent placement on its own.
func LeeSeedPlacement(t *Torus, size int, a RoutingAlgorithm, workers int) (*AnnealResult, error) {
	return optimize.LeeSeed(t, size, a, workers)
}

// LeeTilingRadius is the largest radius r such that size disjoint Lee
// balls of radius r fit in the torus — the spacing target LeeSeedPlacement
// aims for.
func LeeTilingRadius(t *Torus, size int) int { return optimize.TilingRadius(t, size) }

// ServiceClient is the typed HTTP client for a running torusd (see
// cmd/torusd and "Serving analyses over HTTP" in README.md).
type ServiceClient = service.Client

// NewServiceClient returns a typed client for a torusd base URL. It is
// single-attempt: every transport or HTTP error surfaces immediately.
func NewServiceClient(baseURL string) *ServiceClient { return service.NewClient(baseURL) }

// Observability (package obs): zero-dependency context-propagated span
// tracing. torusd wires it in by default (/metrics, /debug/traces);
// library callers can trace their own pipelines by installing a Tracer and
// passing its root context into ComputeLoadCtx. See OBSERVABILITY.md.
type (
	// Tracer buffers finished request traces in a bounded ring.
	Tracer = obs.Tracer
	// Span is one live timed stage; the nil *Span is a no-op.
	Span = obs.Span
)

// NewTracer builds a tracer retaining the last n finished traces (n <= 0
// selects the default ring size).
func NewTracer(n int) *Tracer { return obs.NewTracer(n) }

// StartSpan opens a child span on the trace carried by ctx and returns the
// derived context. Without an active trace it returns ctx and a nil span,
// costing no allocations.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.Start(ctx, name)
}
