package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"torusnet/internal/bounds"
	"torusnet/internal/cliutil"
	"torusnet/internal/core"
	"torusnet/internal/load"
	"torusnet/internal/placement"
	"torusnet/internal/service"
	"torusnet/internal/torus"
)

// closeTo reports whether a and b agree to a relative 1e-9: answers cross a
// JSON round trip, and reference recomputation may sum in another order.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// bestOf is the strongest of the three lower bounds every answer reports.
func bestOf(blaum, bisection, improved float64) float64 {
	return math.Max(blaum, math.Max(bisection, improved))
}

// checkCall judges one 2xx answer against the paper and returns the decoded
// analyze answer (nil for other endpoints) for post-run verification. An
// error is a wrong answer:
//   - analytic-lane E_max must equal load.AnalyticEMax (Theorem 2);
//   - computed E_max must be exact and at least the best lower bound, which
//     must itself be the maximum of the reported bounds;
//   - every answer must echo its canonical request.
func checkCall(req *request, body []byte) (*service.AnalyzeResponse, error) {
	switch req.path {
	case "/v1/analyze":
		var r service.AnalyzeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if r.K != req.k || r.D != req.d || r.Placement != req.placement || r.Routing != req.routing {
			return nil, fmt.Errorf("answer for %s echoes k=%d d=%d %s %s", req.key, r.K, r.D, r.Placement, r.Routing)
		}
		if r.Degraded {
			return nil, fmt.Errorf("%s answered degraded", req.key)
		}
		if req.analytic {
			alg, err := cliutil.ParseRouting(req.routing)
			if err != nil {
				return nil, err
			}
			want, ok := load.AnalyticEMax(req.k, req.d, 1, alg.Name(), true)
			if r.Engine != load.EngineAnalytic || !ok || r.EMax != want.EMax {
				return nil, fmt.Errorf("%s: engine %s e_max %v, want analytic %v", req.key, r.Engine, r.EMax, want.EMax)
			}
			return &r, nil
		}
		if r.Engine == load.EngineAnalytic || !r.Exact {
			return nil, fmt.Errorf("%s: engine %s exact=%v, want an exact computed answer", req.key, r.Engine, r.Exact)
		}
		if r.BestLowerBound != bestOf(r.BlaumBound, r.BisectionBound, r.ImprovedBound) {
			return nil, fmt.Errorf("%s: best lower bound %v is not the best of the bounds", req.key, r.BestLowerBound)
		}
		if r.EMax < r.BestLowerBound && !closeTo(r.EMax, r.BestLowerBound) {
			return nil, fmt.Errorf("%s: e_max %v below the lower bound %v", req.key, r.EMax, r.BestLowerBound)
		}
		return &r, nil
	case "/v1/bounds":
		var r service.BoundsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if r.K != req.k || r.D != req.d || r.Placement != req.placement {
			return nil, fmt.Errorf("bounds answer for %s echoes %s", req.key, r.Placement)
		}
		if r.BestLowerBound != bestOf(r.BlaumBound, r.BisectionBound, r.ImprovedBound) {
			return nil, fmt.Errorf("%s: best lower bound %v is not the best of the bounds", req.key, r.BestLowerBound)
		}
		return nil, nil
	case "/v1/bisect":
		var r service.BisectResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if r.K != req.k || r.D != req.d || r.Placement != req.placement || r.Cut.ProcsA+r.Cut.ProcsB != r.Processors {
			return nil, fmt.Errorf("bisect answer for %s is inconsistent", req.key)
		}
		want := bounds.Bisection(r.Processors, r.Cut.Width)
		if math.IsInf(want, 1) {
			want = math.MaxFloat64
		}
		if !closeTo(r.SeparatorBound, want) {
			return nil, fmt.Errorf("%s: separator bound %v, Eq. 8 gives %v", req.key, r.SeparatorBound, want)
		}
		return nil, nil
	}
	return nil, fmt.Errorf("bench: no check for %s", req.path)
}

// sampled is the part of one answer kept for post-run verification, small
// so the samples barely weigh on the live heap the run measures.
type sampled struct {
	req             *request
	eMax, total, lb float64
}

// buildPlacement instantiates a fresh placement from its canonical spec on
// T^d_k, as the service does per request: per-placement caches (translation
// stabilizer, linear class) start cold.
func buildPlacement(k, d int, spec string) (*placement.Placement, error) {
	ps, err := cliutil.ParsePlacement(spec)
	if err != nil {
		return nil, err
	}
	return ps.Build(torus.New(k, d))
}

// verifySamples re-derives each sampled computed answer after
// timing: total_load must equal load.ExpectedTotal (load conservation,
// Σ E(l) = Σ Lee), and with reference set — for cluster answers — E_max
// and the bound must equal a single-node core.AnalyzeCtx run. It returns
// the number of keys checked and the wrong answers found.
func verifySamples(ctx context.Context, samples map[string]sampled, reference bool) (int, []error) {
	checked := 0
	var wrong []error
	for _, s := range samples {
		if s.req.analytic {
			continue
		}
		checked++
		p, err := buildPlacement(s.req.k, s.req.d, s.req.placement)
		if err != nil {
			wrong = append(wrong, err)
			continue
		}
		if total := load.ExpectedTotal(p); !closeTo(s.total, total) {
			wrong = append(wrong, fmt.Errorf("%s: total_load %v, Σ Lee %v", s.req.key, s.total, total))
		}
		if !reference {
			continue
		}
		alg, err := cliutil.ParseRouting(s.req.routing)
		if err != nil {
			wrong = append(wrong, err)
			continue
		}
		rep := core.AnalyzeCtx(ctx, p, alg, load.Options{Workers: 1})
		if !closeTo(s.eMax, rep.Load.Max) || !closeTo(s.lb, rep.BestLowerBound()) {
			wrong = append(wrong, fmt.Errorf("%s: cluster e_max %v bound %v, single node %v %v",
				s.req.key, s.eMax, s.lb, rep.Load.Max, rep.BestLowerBound()))
		}
	}
	return checked, wrong
}
