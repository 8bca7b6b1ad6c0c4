package service

import (
	"context"

	"torusnet/internal/bisect"
	"torusnet/internal/bounds"
	"torusnet/internal/cliutil"
	"torusnet/internal/core"
	"torusnet/internal/load"
	"torusnet/internal/placement"
)

// The reference answers: each placement endpoint's wire answer built as a
// response struct from what the pipeline computes on a built placement,
// the placement's own name and the busiest edge's EdgeString. Tests check
// a record's writer against json.Marshal of these, and feed their JSON to
// the peer-fill decoders as an owner's body.

func cutSummary(c *bisect.Cut) CutSummary {
	return CutSummary{
		Method:   c.Method,
		Width:    c.Width(),
		ProcsA:   c.ProcsA,
		ProcsB:   c.ProcsB,
		Balanced: c.Balanced(),
	}
}

// computeAnalyze is the /v1/analyze answer to the canonical req on its
// built placement p.
func computeAnalyze(ctx context.Context, req AnalyzeRequest, p *placement.Placement, opts load.Options) (AnalyzeResponse, error) {
	alg, err := cliutil.ParseRouting(req.Routing)
	if err != nil {
		return AnalyzeResponse{}, err
	}
	rep := core.AnalyzeCtx(ctx, p, alg, opts)
	return AnalyzeResponse{
		K:                req.K,
		D:                req.D,
		Placement:        req.Placement,
		Routing:          req.Routing,
		PlacementName:    p.Name(),
		Processors:       p.Size(),
		Uniform:          rep.Uniform,
		DensityC:         rep.DensityC,
		EMax:             rep.Load.Max,
		MaxEdge:          p.Torus().EdgeString(rep.Load.MaxEdge),
		LoadPerProcessor: rep.LoadPerProcessor,
		TotalLoad:        rep.Load.Total,
		BlaumBound:       jsonSafe(rep.BlaumBound),
		BisectionBound:   jsonSafe(rep.BisectionBound),
		ImprovedBound:    jsonSafe(rep.ImprovedBound),
		BestLowerBound:   jsonSafe(rep.BestLowerBound()),
		OptimalityRatio:  jsonSafe(rep.OptimalityRatio),
		SweepCut:         cutSummary(&rep.SweepCut),
		DimensionCut:     cutSummary(&rep.DimensionCut),
		Engine:           rep.Load.Engine,
		Exact:            true,
	}, nil
}

// computeBounds is the /v1/bounds answer to the canonical req on its
// built placement p.
func computeBounds(ctx context.Context, req BoundsRequest, p *placement.Placement) BoundsResponse {
	b := evaluateBounds(ctx, p)
	return BoundsResponse{
		K:                req.K,
		D:                req.D,
		Placement:        req.Placement,
		PlacementName:    p.Name(),
		Processors:       p.Size(),
		Uniform:          b.Uniform,
		DensityC:         b.DensityC,
		BlaumBound:       jsonSafe(b.BlaumBound),
		BisectionBound:   jsonSafe(b.BisectionBound),
		ImprovedBound:    jsonSafe(b.ImprovedBound),
		BestLowerBound:   jsonSafe(b.BestLowerBound()),
		Theorem1Width:    bounds.Theorem1Width(req.K, req.D),
		CorollaryCeiling: bounds.CorollaryBisectionCeiling(req.K, req.D),
	}
}

// computeBisect is the /v1/bisect answer to the canonical req on its
// built placement p.
func computeBisect(ctx context.Context, req BisectRequest, p *placement.Placement) (BisectResponse, error) {
	cut, err := bisectCut(ctx, req.Method, p)
	if err != nil {
		return BisectResponse{}, err
	}
	return BisectResponse{
		K:              req.K,
		D:              req.D,
		Placement:      req.Placement,
		PlacementName:  p.Name(),
		Processors:     p.Size(),
		Method:         req.Method,
		Cut:            cutSummary(cut),
		SeparatorBound: jsonSafe(bounds.Bisection(p.Size(), cut.Width())),
	}, nil
}
