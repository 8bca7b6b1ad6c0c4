// Package torusnet reproduces "Lower Bounds on Communication Loads and
// Optimal Placements in Torus Networks" (Azizoglu & Egecioglu, IPPS 1998 /
// IEEE TC 2000) as an executable library.
//
// A d-dimensional k-torus is partially populated with processors according
// to a placement; a routing algorithm specifies shortest paths between
// every processor pair; and the load of a link is the expected number of
// messages crossing it during a complete exchange. The package exports:
//
//   - the torus T^d_k (NewTorus, with Mod, Volume, and MaxNodes for safe
//     coordinate and size arithmetic), placements (Linear, MultipleLinear,
//     Full, Random), and the paper's routing algorithms ODR and UDR;
//   - the exact expected-load engine of Definition 4 (ComputeLoad,
//     ComputeLoadCtx) and its traffic-pattern generalization
//     (ComputePatternLoad with the Pattern* matrices);
//   - Analyze, which returns E_max alongside every lower bound in the paper
//     (Eq. 1, Eq. 8, the §4 improved bound) and the bisections behind them,
//     plus the bisection constructions themselves (DimensionCut for
//     Theorem 1, SweepBisect and BestSweepBisect for the appendix sweep)
//     and the Eq. 8 and Eq. 9 formulas (BisectionBound, MaxPlacementSize);
//   - fault-tolerance analysis (§7: AnalyzeFaults, RandomFailureBrokenPairs);
//   - a cycle-accurate store-and-forward simulator (Simulate), a flit-level
//     wormhole simulator (SimulateWormhole), and a BSP cost fit
//     (EstimateBSP);
//   - a multi-strategy placement searcher (BranchBoundPlacement, which
//     proves optima on small tori; AnnealPlacementCtx; LeeSeedPlacement),
//     each result stamped with its gap to the §4 lower bound;
//   - NewServiceClient, the typed client for the torusd HTTP service, and
//     NewTracer/StartSpan for tracing library calls.
//
// The root package is a facade over the internal packages: it exports what
// the examples and the documentation use. The E1–E33 experiment registry
// runs through cmd/experiments and the HTTP service through cmd/torusd;
// see the examples/ directory for end-to-end usage and EXPERIMENTS.md for
// the paper-vs-measured record.
package torusnet
