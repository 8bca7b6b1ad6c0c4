package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"torusnet/internal/bisect"
	"torusnet/internal/bounds"
	"torusnet/internal/cliutil"
	"torusnet/internal/core"
	"torusnet/internal/load"
	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/sweep"
	"torusnet/internal/torus"
)

// CutSummary is the wire form of one bisection cut.
type CutSummary struct {
	Method   string `json:"method"`
	Width    int    `json:"width"`
	ProcsA   int    `json:"procs_a"`
	ProcsB   int    `json:"procs_b"`
	Balanced bool   `json:"balanced"`
}

func cutSummary(c *bisect.Cut) CutSummary {
	return CutSummary{
		Method:   c.Method,
		Width:    c.Width(),
		ProcsA:   c.ProcsA,
		ProcsB:   c.ProcsB,
		Balanced: c.Balanced(),
	}
}

// AnalyzeResponse is the wire form of a core.Report. The echoed request
// fields are canonical, so a client can replay the exact cache key.
type AnalyzeResponse struct {
	K                int        `json:"k"`
	D                int        `json:"d"`
	Placement        string     `json:"placement"`
	Routing          string     `json:"routing"`
	PlacementName    string     `json:"placement_name"`
	Processors       int        `json:"processors"`
	Uniform          bool       `json:"uniform"`
	DensityC         float64    `json:"density_c"`
	EMax             float64    `json:"e_max"`
	MaxEdge          string     `json:"max_edge"`
	LoadPerProcessor float64    `json:"load_per_processor"`
	TotalLoad        float64    `json:"total_load"`
	BlaumBound       float64    `json:"blaum_bound"`
	BisectionBound   float64    `json:"bisection_bound"`
	ImprovedBound    float64    `json:"improved_bound"`
	BestLowerBound   float64    `json:"best_lower_bound"`
	OptimalityRatio  float64    `json:"optimality_ratio"`
	SweepCut         CutSummary `json:"sweep_cut"`
	DimensionCut     CutSummary `json:"dimension_cut"`
	// Engine reports which load engine produced E_max ("ring-flow" for the
	// per-ring marginal sweep that answers the dimension-ordered routings,
	// "symmetry" for the translation fast path that answers FAR on
	// symmetric placements, "generic" for the pair loop, "analytic" for
	// closed-form fast-lane answers).
	// Engine choice never changes exact results beyond float summation
	// order, so it is not part of the cache key.
	Engine string `json:"engine"`
	// Exact reports whether EMax is the exact expectation rather than an
	// upper bound. This server writes true on every answer: the computed
	// engines and the lane's Theorem 2 equality both give E_max itself.
	Exact bool `json:"exact"`
	// Theorem names the paper closed form behind an analytic answer
	// ("theorem2" from this server's lane); empty for computed engines.
	// Analytic answers carry no per-edge fields: MaxEdge, TotalLoad, and
	// the cut summaries are zero.
	Theorem string `json:"theorem,omitempty"`
	Cached  bool   `json:"cached"`
	// Degraded is never set by this server: every answer comes from an
	// exact engine or a closed form, and past saturation a miss queues or
	// gets 429. The field stays for two readers. decodeAnalyzeFill rejects a fill body that
	// sets it, which an older peer still serving Monte Carlo estimates may
	// send during a rolling upgrade. The benchmark's answer check
	// (bench/check.go) counts a body that sets it as wrong.
	Degraded bool `json:"degraded,omitempty"`
}

// BoundsResponse reports every lower bound of the paper for a placement.
type BoundsResponse struct {
	K                int     `json:"k"`
	D                int     `json:"d"`
	Placement        string  `json:"placement"`
	PlacementName    string  `json:"placement_name"`
	Processors       int     `json:"processors"`
	Uniform          bool    `json:"uniform"`
	DensityC         float64 `json:"density_c"`
	BlaumBound       float64 `json:"blaum_bound"`
	BisectionBound   float64 `json:"bisection_bound"`
	ImprovedBound    float64 `json:"improved_bound"`
	BestLowerBound   float64 `json:"best_lower_bound"`
	Theorem1Width    float64 `json:"theorem1_width"`
	CorollaryCeiling float64 `json:"corollary_ceiling"`
	Cached           bool    `json:"cached"`
}

// BisectResponse reports one bisection construction and its Eq. 8 bound.
type BisectResponse struct {
	K              int        `json:"k"`
	D              int        `json:"d"`
	Placement      string     `json:"placement"`
	PlacementName  string     `json:"placement_name"`
	Processors     int        `json:"processors"`
	Method         string     `json:"method"`
	Cut            CutSummary `json:"cut"`
	SeparatorBound float64    `json:"separator_bound"`
	Cached         bool       `json:"cached"`
}

// ExperimentInfo is one registry entry of the GET /v1/experiments listing.
type ExperimentInfo struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	PaperRef string `json:"paper_ref,omitempty"`
}

// ExperimentRunResponse carries one experiment's rendered table.
type ExperimentRunResponse struct {
	ID     string          `json:"id"`
	Scale  string          `json:"scale"`
	Table  json.RawMessage `json:"table"`
	Cached bool            `json:"cached"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_s"`
	Experiments   int     `json:"experiments"`
}

// ReadyResponse is the GET /readyz body. Mode is "single" (always ready)
// or "cluster" (ready reflects ring join state); the peer fields are
// cluster-mode only.
type ReadyResponse struct {
	Ready     bool   `json:"ready"`
	Mode      string `json:"mode"`
	Self      string `json:"self,omitempty"`
	Epoch     uint64 `json:"epoch,omitempty"`
	Peers     int    `json:"peers,omitempty"`
	PeersDown int    `json:"peers_down"`
}

// ErrorResponse is the uniform error body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Peer-fill decoders: each turns a home peer's 200 body into the same
// immutable value local computation stores in the result cache (for the
// placement endpoints, the record of the wire answer), so a filled entry
// is indistinguishable from a locally computed one. The handler stamps
// per-caller fields (Cached) after the cache read, exactly as for local
// values.

// decodeAnalyzeFill decodes a peer /v1/analyze fill. A degraded body (a
// Monte Carlo estimate from an older peer, see AnalyzeResponse.Degraded) is
// rejected so it never becomes a cached exact answer: the filler falls
// back to computing the exact answer itself.
func decodeAnalyzeFill(data []byte) (any, error) {
	var r AnalyzeResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.Degraded {
		return nil, errors.New("service: peer fill answered degraded; computing exactly instead")
	}
	return stored(compactAnalyze(&r))
}

// decodeBoundsFill decodes a peer /v1/bounds fill.
func decodeBoundsFill(data []byte) (any, error) {
	var r BoundsResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return stored(compactBounds(&r))
}

// decodeBisectFill decodes a peer /v1/bisect fill.
func decodeBisectFill(data []byte) (any, error) {
	var r BisectResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return stored(compactBisect(&r))
}

// decodeExperimentFill decodes a peer /v1/experiments/{id} fill.
func decodeExperimentFill(data []byte) (any, error) {
	var r ExperimentRunResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return r, nil
}

// jsonSafe clamps non-finite bound values (e.g. a separator bound over an
// empty boundary) to representable JSON numbers.
func jsonSafe(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// specError is a placement spec that does not fit its torus (multi:T with
// T > k, random counts past k^d, …): the client's fault, answered with 400
// and the builder's message. It surfaces from execute's miss stage, so it
// never reaches the flight, a peer or the pool, and nothing caches it.
type specError struct{ err error }

func (e *specError) Error() string { return e.err.Error() }
func (e *specError) Unwrap() error { return e.err }

// fitPlacement is the one spec-vs-torus check of the request path, run
// once per cache miss in execute's miss stage: O(d), building nothing.
func fitPlacement(spec placement.Spec, k, d int) error {
	if err := spec.Fit(torus.New(k, d)); err != nil {
		return &specError{err}
	}
	return nil
}

// buildPlacement instantiates a canonical spec on T^d_k, inside the pooled
// computation of the flight leader, after fitPlacement accepted it.
func buildPlacement(spec placement.Spec, k, d int) (*placement.Placement, error) {
	p, err := spec.Build(torus.New(k, d))
	if err != nil {
		return nil, &specError{err}
	}
	return p, nil
}

// analyzeWork, boundsWork, bisectWork and experimentWork are the work of
// a cache miss on each endpoint (see missCall). The placement endpoints'
// work computes the wire answer and returns its record. Each releases its
// placement on the worker as soon as the answer is computed: the answer
// copies out everything it reads, and the compute owns the placement to
// its end, so one abandoned by the watchdog or answered with a 504 still
// holds its buffers until it returns.
type (
	analyzeWork struct {
		req  AnalyzeRequest
		spec placement.Spec
	}
	boundsWork struct {
		req  BoundsRequest
		spec placement.Spec
	}
	bisectWork struct {
		req  BisectRequest
		spec placement.Spec
	}
	experimentWork struct {
		e     sweep.Experiment
		scale string
	}
)

func (w analyzeWork) compute(ctx context.Context, s *Server) (any, error) {
	p, err := buildPlacement(w.spec, w.req.K, w.req.D)
	if err != nil {
		return nil, err
	}
	resp, err := computeAnalyze(ctx, w.req, p, s.cfg.loadOptions())
	p.Release()
	if err != nil {
		return nil, err
	}
	return stored(compactAnalyze(&resp))
}

func (w boundsWork) compute(ctx context.Context, _ *Server) (any, error) {
	p, err := buildPlacement(w.spec, w.req.K, w.req.D)
	if err != nil {
		return nil, err
	}
	resp := computeBounds(ctx, w.req, p)
	p.Release()
	return stored(compactBounds(&resp))
}

func (w bisectWork) compute(ctx context.Context, _ *Server) (any, error) {
	p, err := buildPlacement(w.spec, w.req.K, w.req.D)
	if err != nil {
		return nil, err
	}
	resp, err := computeBisect(ctx, w.req, p)
	p.Release()
	if err != nil {
		return nil, err
	}
	return stored(compactBisect(&resp))
}

func (w experimentWork) compute(ctx context.Context, _ *Server) (any, error) {
	resp, err := computeExperiment(ctx, w.e, w.scale)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// computeAnalyze runs the full core pipeline for a canonical request on
// its built placement p, recording the core/load span tree under any trace
// carried by ctx.
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

// computeBounds evaluates the bound suite on the built placement p without
// the O(|P|²) load run — the cheap half of core.Analyze.
func computeBounds(ctx context.Context, req BoundsRequest, p *placement.Placement) BoundsResponse {
	_, sp := obs.Start(ctx, "compute.bounds")
	defer sp.End()
	t := p.Torus()
	b := core.EvaluateBounds(p)
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
		Theorem1Width:    bounds.Theorem1Width(t.K(), t.D()),
		CorollaryCeiling: bounds.CorollaryBisectionCeiling(t.K(), t.D()),
	}
}

// computeBisect runs the requested bisection construction on the built
// placement p.
func computeBisect(ctx context.Context, req BisectRequest, p *placement.Placement) (BisectResponse, error) {
	_, sp := obs.Start(ctx, "compute.bisect")
	defer sp.End()
	sp.SetAttr("method", req.Method)
	var cut *bisect.Cut
	switch req.Method {
	case "sweep":
		cut = bisect.Sweep(p)
	case "best-sweep":
		cut = bisect.BestSweep(p)
	case "dimension":
		cut = bisect.BestDimensionCut(p)
	default:
		return BisectResponse{}, fmt.Errorf("service: unknown bisection method %q", req.Method)
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

// computeExperiment runs one registered experiment at the given scale,
// tracing and profile-labeling the run via sweep.RunTraced.
func computeExperiment(ctx context.Context, e sweep.Experiment, scale string) (ExperimentRunResponse, error) {
	s := sweep.Quick
	if scale == "full" {
		s = sweep.Full
	}
	tb := e.RunTraced(ctx, s)
	raw, err := tb.JSON()
	if err != nil {
		return ExperimentRunResponse{}, fmt.Errorf("service: rendering experiment %s: %w", e.ID, err)
	}
	return ExperimentRunResponse{ID: e.ID, Scale: scale, Table: raw}, nil
}
