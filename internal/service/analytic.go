package service

import (
	"context"
	"math"

	"torusnet/internal/bounds"
	"torusnet/internal/cliutil"
	"torusnet/internal/load"
	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/torus"
)

// tryAnalytic is the admission fast lane for /v1/analyze. It reads the
// canonical request req and its placement spec: when the spec itself
// proves a single linear placement (linear:C, diagonal:S or multi:1:S —
// t = 1 by construction, see placement.ResidueClasses, no node walk
// needed) and the routing has a Theorem 2 equality (ODR always, ODR-multi
// on odd k where unique shortest ring paths make it coincide with ODR),
// the answer is the closed form — O(1) arithmetic, evaluated before
// caching and the worker pool, so analytic answers never queue, are never
// 429'd, and are independent of torus size. The handler therefore applies
// Config.MaxNodes only after the lane declines: that cap exists to keep
// O(k^d) work off the pool, and the lane does no such work — T³₂₅₆-class
// requests answer in microseconds.
//
// Lane answers carry Engine "analytic" and Exact == true, echo the
// canonical placement/routing spellings, and report the O(1) bound suite
// (Blaum + Improved; linear placements are uniform with density c = 1).
// Fields that require edge or cut enumeration — MaxEdge, TotalLoad,
// BisectionBound, SweepCut, DimensionCut — are zero: closed forms answer
// E_max, not the load vector. Anything the lane cannot prove falls through
// (ok == false) to the ordinary computed pipeline, including when the
// load.analytic.dispatch failpoint is armed.
func (s *Server) tryAnalytic(ctx context.Context, req *AnalyzeRequest, spec placement.Spec) (AnalyzeResponse, bool) {
	if !s.cfg.EnableAnalytic {
		return AnalyzeResponse{}, false
	}
	classes, ok := placement.ResidueClasses(spec)
	if !ok {
		return AnalyzeResponse{}, false
	}
	alg, err := cliutil.ParseRouting(req.Routing)
	if err != nil {
		return AnalyzeResponse{}, false
	}
	k, d := req.K, req.D
	ev, ok := load.AnalyticAnswer(k, d, classes, alg.Name(), true)
	if !ok {
		return AnalyzeResponse{}, false
	}
	_, sp := obs.Start(ctx, "load.analytic")
	defer sp.End()
	sp.SetAttr("engine", load.EngineAnalytic)
	sp.SetAttr("theorem", ev.Theorem)

	// |P| = k^{d-1} ≤ k^d, which torus.Check already admitted.
	procs, err := torus.Volume(k, d-1)
	if err != nil {
		return AnalyzeResponse{}, false
	}
	blaum := bounds.Blaum(procs, d)
	improved := bounds.Improved(1, k, d)
	best := math.Max(blaum, improved)
	ratio := 0.0
	if best > 0 {
		ratio = ev.EMax / best
	}
	s.metrics.add(mAnalyticHits, 1)
	return AnalyzeResponse{
		K:                k,
		D:                d,
		Placement:        req.Placement,
		Routing:          req.Routing,
		PlacementName:    spec.Name(),
		Processors:       procs,
		Uniform:          true,
		DensityC:         1,
		EMax:             ev.EMax,
		LoadPerProcessor: ev.EMax / float64(procs),
		BlaumBound:       jsonSafe(blaum),
		ImprovedBound:    jsonSafe(improved),
		BestLowerBound:   jsonSafe(best),
		OptimalityRatio:  jsonSafe(ratio),
		Engine:           load.EngineAnalytic,
		Exact:            true,
		Theorem:          ev.Theorem,
	}, true
}
