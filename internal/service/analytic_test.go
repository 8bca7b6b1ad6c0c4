package service

import (
	"context"
	"testing"

	"torusnet/internal/load"
)

// TestAnalyticLaneOffByDefault checks the zero-value Config keeps the
// closed-form lane dark: a perfect Theorem 2 request runs the computed
// pipeline and no lane counter moves.
func TestAnalyticLaneOffByDefault(t *testing.T) {
	s, c, stop := newTestServer(t, Config{Workers: 2})
	defer stop()
	resp, err := c.Analyze(context.Background(), AnalyzeRequest{K: 5, D: 2, Placement: "linear", Routing: "odr"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Engine == load.EngineAnalytic {
		t.Errorf("lane-off server answered analytically")
	}
	if resp.TotalLoad == 0 {
		t.Error("computed answer should carry a load vector summary")
	}
	if got := s.metrics.get(mAnalyticHits); got != 0 {
		t.Errorf("analytic_hits = %d, want 0", got)
	}
}

// TestAnalyticLaneAnswers drives the lane end to end: engine, exactness,
// theorem, canonical echoes, the O(1) bound suite, and the hit counter.
func TestAnalyticLaneAnswers(t *testing.T) {
	s, c, stop := newTestServer(t, Config{Workers: 2, EnableAnalytic: true})
	defer stop()
	ctx := context.Background()

	resp, err := c.Analyze(ctx, AnalyzeRequest{K: 5, D: 2, Placement: "linear:-2", Routing: "ODR"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Engine != load.EngineAnalytic || !resp.Exact || resp.Theorem != "theorem2" {
		t.Fatalf("engine=%q exact=%v theorem=%q", resp.Engine, resp.Exact, resp.Theorem)
	}
	if resp.Placement != "linear:3" || resp.Routing != "odr" || resp.PlacementName != "linear(c=3)" {
		t.Errorf("canonical echo: placement=%q routing=%q name=%q", resp.Placement, resp.Routing, resp.PlacementName)
	}
	if resp.Processors != 5 || !resp.Uniform || resp.DensityC != 1 {
		t.Errorf("procs=%d uniform=%v c=%g", resp.Processors, resp.Uniform, resp.DensityC)
	}
	if want := load.ODRLinearMax(5, 2); resp.EMax != want {
		t.Errorf("EMax = %g, want %g", resp.EMax, want)
	}
	if resp.BestLowerBound <= 0 || resp.OptimalityRatio <= 0 {
		t.Errorf("bound suite missing: best=%g ratio=%g", resp.BestLowerBound, resp.OptimalityRatio)
	}
	if resp.TotalLoad != 0 || resp.Cached {
		t.Errorf("lane answers carry no vector and never cache: %+v", resp)
	}
	if got := s.metrics.get(mAnalyticHits); got != 1 {
		t.Errorf("analytic_hits = %d, want 1", got)
	}

	// diagonal and multi:1 spell the same single linear placement.
	for _, spec := range []string{"diagonal:2", "multi:1:2"} {
		resp, err := c.Analyze(ctx, AnalyzeRequest{K: 5, D: 3, Placement: spec, Routing: "odr-multi"})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if resp.Engine != load.EngineAnalytic || resp.EMax != load.ODRLinearMax(5, 3) {
			t.Errorf("%s: engine=%q EMax=%g", spec, resp.Engine, resp.EMax)
		}
	}
}

// TestAnalyticLaneMatchesComputed checks a laned answer equals the full
// pipeline's E_max for the same request.
func TestAnalyticLaneMatchesComputed(t *testing.T) {
	_, lane, stopLane := newTestServer(t, Config{Workers: 2, EnableAnalytic: true})
	defer stopLane()
	_, comp, stopComp := newTestServer(t, Config{Workers: 2})
	defer stopComp()
	ctx := context.Background()
	req := AnalyzeRequest{K: 6, D: 2, Placement: "linear:1", Routing: "odr"}

	a, err := lane.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := comp.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != load.EngineAnalytic || b.Engine == load.EngineAnalytic {
		t.Fatalf("engines: lane=%q computed=%q", a.Engine, b.Engine)
	}
	if a.EMax != b.EMax || a.BestLowerBound != b.BestLowerBound {
		t.Errorf("lane EMax=%g best=%g, computed EMax=%g best=%g",
			a.EMax, a.BestLowerBound, b.EMax, b.BestLowerBound)
	}
}

// TestAnalyticLaneBypassesSizeCap is the headline perf property: a torus
// far past Config.MaxNodes (T³₂₅₆ has 16.7M nodes against the default
// 4096 cap) answers analytically because the lane does no O(k^d) work,
// while the computed pipeline must still reject it.
func TestAnalyticLaneBypassesSizeCap(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 2, EnableAnalytic: true})
	defer stop()
	ctx := context.Background()

	resp, err := c.Analyze(ctx, AnalyzeRequest{K: 256, D: 3, Placement: "linear", Routing: "odr"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Engine != load.EngineAnalytic || !resp.Exact {
		t.Fatalf("T^3_256: engine=%q exact=%v", resp.Engine, resp.Exact)
	}
	if want := load.ODRLinearMax(256, 3); resp.EMax != want || resp.Processors != 256*256 {
		t.Errorf("T^3_256: EMax=%g procs=%d, want %g, 65536", resp.EMax, resp.Processors, want)
	}
	// The same torus on a non-lane shape still hits the size cap.
	if _, err := c.Analyze(ctx, AnalyzeRequest{K: 256, D: 3, Placement: "random:8", Routing: "odr"}); err == nil {
		t.Error("oversized computed request should be rejected")
	}
}

// TestAnalyticLaneFallsThrough enumerates requests the lane must hand to
// the computed pipeline: non-exact routings, multi-class and random
// placements, and sub-2d tori.
func TestAnalyticLaneFallsThrough(t *testing.T) {
	s, c, stop := newTestServer(t, Config{Workers: 2, EnableAnalytic: true})
	defer stop()
	ctx := context.Background()
	reqs := []AnalyzeRequest{
		{K: 5, D: 2, Placement: "linear", Routing: "udr"},       // Theorem 4 is a bound, not an answer
		{K: 6, D: 2, Placement: "linear", Routing: "odr-multi"}, // even k: paths split
		{K: 5, D: 2, Placement: "multi:2", Routing: "odr"},      // t > 1 is Theorem 3 territory
		{K: 5, D: 2, Placement: "random:5", Routing: "odr"},     // unstructured
		{K: 5, D: 1, Placement: "linear", Routing: "odr"},       // no second dimension
	}
	for _, req := range reqs {
		resp, err := c.Analyze(ctx, req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if resp.Engine == load.EngineAnalytic {
			t.Errorf("%+v: answered analytically", req)
		}
	}
	if got := s.metrics.get(mAnalyticHits); got != 0 {
		t.Errorf("analytic_hits = %d after fall-through-only traffic", got)
	}
}
