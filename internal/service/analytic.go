package service

import (
	"context"
	"math"
	"strconv"
	"strings"

	"torusnet/internal/bounds"
	"torusnet/internal/cliutil"
	"torusnet/internal/load"
	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/torus"
)

// tryAnalytic is the admission fast lane for /v1/analyze: when the request
// spec itself proves the placement is a single linear placement (linear:C,
// diagonal:S, or multi:1:S — t = 1 by construction, no node walk needed)
// and the routing has a Theorem 2 equality (ODR always, ODR-multi on odd k
// where unique shortest ring paths make it coincide with ODR), the answer
// is the closed form — O(1) arithmetic, evaluated before canonicalization,
// caching, and the worker pool, so analytic answers never queue, are never
// 429'd, and are independent of torus size. The lane therefore checks (k, d) against the package representation
// limit only, not Config.MaxNodes: that cap exists to keep O(k^d) work off
// the pool, and the lane does no such work — T³₂₅₆-class requests answer in
// microseconds.
//
// Lane answers carry Engine "analytic" and Exact == true, echo canonical
// placement/routing spellings, and report the O(1) bound suite (Blaum +
// Improved; linear placements are uniform with density c = 1). Fields that
// require edge or cut enumeration — MaxEdge, TotalLoad, BisectionBound,
// SweepCut, DimensionCut — are zero: closed forms answer E_max, not the
// load vector. Anything the lane cannot prove falls through (ok == false)
// to the ordinary computed pipeline, including when the load.analytic.dispatch
// failpoint is armed.
func (s *Server) tryAnalytic(ctx context.Context, req AnalyzeRequest) (AnalyzeResponse, bool) {
	if !s.cfg.EnableAnalytic {
		return AnalyzeResponse{}, false
	}
	k, d := req.K, req.D
	if d < 2 || torus.Check(k, d) != nil {
		return AnalyzeResponse{}, false
	}
	spec, err := cliutil.ParsePlacement(strings.TrimSpace(req.Placement))
	if err != nil {
		return AnalyzeResponse{}, false
	}
	var canonSpec placement.Spec
	var canonPlacement string
	switch v := spec.(type) {
	case placement.Linear:
		if v.Coeffs != nil {
			// Non-unit coefficient vectors are outside the recognizer's
			// family; let the computed engines handle them.
			return AnalyzeResponse{}, false
		}
		c := torus.Mod(v.C, k)
		canonSpec, canonPlacement = placement.Linear{C: c}, "linear:"+strconv.Itoa(c)
	case placement.ShiftedDiagonal:
		sh := torus.Mod(v.Shift, k)
		canonSpec, canonPlacement = placement.ShiftedDiagonal{Shift: sh}, "diagonal:"+strconv.Itoa(sh)
	case placement.MultipleLinear:
		if v.T != 1 || v.Coeffs != nil {
			return AnalyzeResponse{}, false
		}
		st := torus.Mod(v.Start, k)
		canonSpec, canonPlacement = placement.MultipleLinear{T: 1, Start: st}, "multi:1:"+strconv.Itoa(st)
	default:
		return AnalyzeResponse{}, false
	}
	var algName, canonRouting string
	switch strings.ToLower(strings.TrimSpace(req.Routing)) {
	case "odr":
		algName, canonRouting = "ODR", "odr"
	case "odr-multi", "odrmulti":
		algName, canonRouting = "ODR-multi", "odr-multi"
	default:
		return AnalyzeResponse{}, false
	}
	ev, ok := load.AnalyticAnswer(k, d, 1, algName, true)
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
		Placement:        canonPlacement,
		Routing:          canonRouting,
		PlacementName:    canonSpec.Name(),
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
