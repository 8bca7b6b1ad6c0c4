package service

import (
	"context"

	"torusnet/internal/bounds"
	"torusnet/internal/cliutil"
	"torusnet/internal/core"
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
	// A Theorem 2 placement is uniform with c = 1; the lane builds no cut,
	// so it gives no Eq. 8 bound.
	cf := core.ClosedForms{
		BlaumBound:    bounds.Blaum(procs, d),
		ImprovedBound: bounds.Improved(1, k, d),
		DensityC:      1,
	}
	ratio, perProc := cf.Ratios(ev.EMax, procs)
	s.metrics.add(mAnalyticHits, 1)
	return AnalyzeResponse{
		K:                k,
		D:                d,
		Placement:        req.Placement,
		Routing:          req.Routing,
		PlacementName:    spec.Name(),
		Processors:       procs,
		Uniform:          true,
		DensityC:         cf.DensityC,
		EMax:             ev.EMax,
		LoadPerProcessor: perProc,
		BlaumBound:       jsonSafe(cf.BlaumBound),
		ImprovedBound:    jsonSafe(cf.ImprovedBound),
		BestLowerBound:   jsonSafe(cf.BestLowerBound()),
		OptimalityRatio:  jsonSafe(ratio),
		Engine:           load.EngineAnalytic,
		Exact:            true,
		Theorem:          ev.Theorem,
	}, true
}
