package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"torusnet/internal/bisect"
	"torusnet/internal/cliutil"
	"torusnet/internal/core"
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
// placement endpoints, the record of the wire answer, records.go), so a
// filled entry is indistinguishable from a locally computed one. The
// handler stamps per-caller fields (Cached) after the cache read, exactly
// as for local values.

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
// work measures the answer and returns its record. Each releases its
// placement on the worker as soon as the record is taken: the record
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

// compute runs the full core pipeline for the canonical request on its
// built placement, recording the core/load span tree under any trace
// carried by ctx.
func (w analyzeWork) compute(ctx context.Context, s *Server) (any, error) {
	alg, err := cliutil.ParseRouting(w.req.Routing)
	if err != nil {
		return nil, err
	}
	p, err := buildPlacement(w.spec, w.req.K, w.req.D)
	if err != nil {
		return nil, err
	}
	rec, err := analyzeOf(core.AnalyzeCtx(ctx, p, alg, s.cfg.loadOptions()))
	p.Release()
	return stored(rec, err)
}

// compute evaluates the bound suite on the built placement without the
// O(|P|²) load run — the cheap half of core.Analyze.
func (w boundsWork) compute(ctx context.Context, _ *Server) (any, error) {
	p, err := buildPlacement(w.spec, w.req.K, w.req.D)
	if err != nil {
		return nil, err
	}
	b := evaluateBounds(ctx, p)
	rec, err := boundsOf(&b, p.Size(), w.req.K, w.req.D)
	p.Release()
	return stored(rec, err)
}

// compute runs the requested bisection construction on the built
// placement.
func (w bisectWork) compute(ctx context.Context, _ *Server) (any, error) {
	p, err := buildPlacement(w.spec, w.req.K, w.req.D)
	if err != nil {
		return nil, err
	}
	var rec *bisectRecord
	cut, err := bisectCut(ctx, w.req.Method, p)
	if err == nil {
		rec, err = bisectOf(cut, p.Size())
	}
	p.Release()
	return stored(rec, err)
}

func (w experimentWork) compute(ctx context.Context, _ *Server) (any, error) {
	resp, err := computeExperiment(ctx, w.e, w.scale)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// evaluateBounds is core.EvaluateBounds under the compute.bounds span.
func evaluateBounds(ctx context.Context, p *placement.Placement) core.Bounds {
	_, sp := obs.Start(ctx, "compute.bounds")
	defer sp.End()
	return core.EvaluateBounds(p)
}

// bisectCut runs the bisection construction method names on p, under the
// compute.bisect span.
func bisectCut(ctx context.Context, method string, p *placement.Placement) (*bisect.Cut, error) {
	_, sp := obs.Start(ctx, "compute.bisect")
	defer sp.End()
	sp.SetAttr("method", method)
	switch method {
	case "sweep":
		return bisect.Sweep(p), nil
	case "best-sweep":
		return bisect.BestSweep(p), nil
	case "dimension":
		return bisect.BestDimensionCut(p), nil
	}
	return nil, fmt.Errorf("service: unknown bisection method %q", method)
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
