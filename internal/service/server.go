package service

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"torusnet/internal/cluster"
	"torusnet/internal/failpoint"
	"torusnet/internal/load"
	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/sweep"
)

// Config parameterizes a Server. The zero value is serviceable: every
// field has a production default.
type Config struct {
	// Workers is the number of pool goroutines executing analyses
	// concurrently; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; a full queue sheds load
	// with 429. 0 means 2×Workers.
	QueueDepth int
	// AnalysisWorkers is the load-engine worker count per analysis. The
	// engine is deterministic for a fixed worker count, and this value is
	// not part of the cache key, so the server pins it: 0 means 1 (each
	// pool worker runs one single-threaded analysis; scale concurrency
	// with Workers, not with per-analysis fan-out).
	AnalysisWorkers int
	// CacheSize is the LRU capacity in entries; 0 means 512.
	CacheSize int
	// CacheTTL expires cache entries; 0 means 10 minutes, negative
	// disables expiry.
	CacheTTL time.Duration
	// RequestTimeout is the per-request compute deadline; 0 means 60s.
	RequestTimeout time.Duration
	// MaxNodes caps k^d per request; 0 means DefaultMaxNodes.
	MaxNodes int
	// MaxBodyBytes caps request bodies; 0 means 1 MiB.
	MaxBodyBytes int64
	// DisableFastPath forces the generic pair-loop load engine, disabling
	// the translation-symmetry and ring-flow fast paths. Engine choice
	// never changes results beyond float summation order, so it is not
	// part of cache keys; the toggle exists for debugging and A/B
	// measurement.
	DisableFastPath bool
	// EnableAnalytic turns on the closed-form fast lane for /v1/analyze:
	// requests whose spec proves a single linear placement under ODR (or
	// ODR-multi on odd k) are answered from the Theorem 2 equality in
	// O(1), ahead of canonicalization, caching, and the worker pool — so
	// they are never queued or 429'd, and they bypass MaxNodes (only the
	// package torus limit applies, since the lane does no per-node work).
	// Opt-in rather than default because lane answers have a different
	// shape: no per-edge fields (MaxEdge, TotalLoad, and the cuts are
	// zero). cmd/torusd enables the lane by default; -no-analytic disables
	// it.
	EnableAnalytic bool
	// WedgeTimeout is how long one pooled job may execute before the
	// watchdog declares its worker wedged and spawns a replacement to
	// restore pool capacity. 0 means 2×RequestTimeout; negative disables
	// the watchdog.
	WedgeTimeout time.Duration
	// AccessLog receives one structured JSON line per request; nil
	// disables access logging.
	AccessLog io.Writer
	// Tracer collects per-request span trees for /debug/traces. Nil falls
	// back to obs.Default() (also typically nil outside torusd), which
	// leaves the span instrumentation inert.
	Tracer *obs.Tracer
	// SlowThreshold promotes requests slower than this to warn-level access
	// log lines and counts them in torusd_slow_requests_total. 0 disables
	// slow-request detection.
	SlowThreshold time.Duration
	// MaxJobs bounds concurrently running async search jobs (/v1/optimize);
	// submissions past it are shed with 429. 0 means 4.
	MaxJobs int
	// JobTTL is how long finished job records stay pollable before the
	// janitor expires them. 0 means 15 minutes; negative disables expiry.
	JobTTL time.Duration
	// JobTimeout is the per-job search deadline; a job past it fails with a
	// timeout error. 0 means 5 minutes.
	JobTimeout time.Duration
	// Cluster, when non-nil, enables the sharded peer-fill stage: on a
	// local cache miss for a key homed on another peer, the flight leader
	// fetches the answer from that peer before falling back to local
	// compute. Nil (the default) is single-node mode, which adds zero
	// allocations to the request path. See internal/cluster.
	Cluster *cluster.Cluster
	// OnCompute, when set, is invoked inside the pooled computation with
	// the cache key before any work runs. It exists for tests and the
	// multi-node harness (proving exactly-one-compute cluster-wide);
	// production leaves it nil.
	OnCompute func(key string)
}

// loadOptions returns the load-engine options the server pins per analysis.
func (c Config) loadOptions() load.Options {
	opts := load.Options{Workers: c.AnalysisWorkers}
	if c.DisableFastPath {
		opts.FastPath = load.FastPathOff
	}
	return opts
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.AnalysisWorkers <= 0 {
		c.AnalysisWorkers = 1
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 512
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = 10 * time.Minute
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = DefaultMaxNodes
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.WedgeTimeout == 0 {
		c.WedgeTimeout = 2 * c.RequestTimeout
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4
	}
	if c.JobTTL == 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	return c
}

// Server is the torusd HTTP service: validation and canonicalization in
// front, then cache → coalescing → bounded pool around the analysis
// engines. See the package comment for the pipeline.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	cache   *lruCache
	flight  *flightGroup
	pool    *workerPool
	jobs    *jobManager
	metrics *metrics
	logger  *slog.Logger
	httpSrv *http.Server
	started time.Time

	// onCompute, when set, is invoked inside the pooled computation before
	// any work runs. It exists for tests (coalescing and panic-isolation
	// need a deterministic hook); production leaves it nil.
	onCompute func(key string)
}

// New builds a Server from cfg (see Config for defaults). Call Shutdown
// (or Close) when done to stop the worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ttl := cfg.CacheTTL
	if ttl < 0 {
		ttl = 0 // negative disables expiry
	}
	m := newMetrics()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   newLRUCache(cfg.CacheSize, ttl),
		flight:  newFlightGroup(),
		pool:    newWorkerPool(cfg.Workers, cfg.QueueDepth, cfg.WedgeTimeout, m.queueWait.ObserveDuration),
		jobs:    newJobManager(cfg, m),
		metrics: m,
		started: time.Now(),
	}
	s.metrics.vars.Set("pool_worker_restarts", expvar.Func(func() any { return s.pool.restarts.Load() }))
	s.metrics.vars.Set("pool_worker_replacements", expvar.Func(func() any { return s.pool.replacements.Load() }))
	s.metrics.vars.Set("pool_utilization", expvar.Func(func() any { return s.pool.utilization() }))
	s.metrics.vars.Set("pool_running", expvar.Func(func() any { return s.pool.running.Load() }))
	s.metrics.vars.Set("pool_queued", expvar.Func(func() any { return s.pool.queued.Load() }))
	s.metrics.vars.Set("jobs_running", expvar.Func(func() any { return s.jobs.runningCount() }))
	s.metrics.vars.Set("jobs_tracked", expvar.Func(func() any { return s.jobs.tracked() }))
	if cfg.Cluster != nil {
		s.metrics.vars.Set("cluster", cfg.Cluster.Vars())
	}
	s.onCompute = cfg.OnCompute
	if cfg.AccessLog != nil {
		s.logger = slog.New(slog.NewJSONHandler(cfg.AccessLog, nil))
	}
	s.route("POST /v1/analyze", s.handleAnalyze)
	s.route("POST /v1/bounds", s.handleBounds)
	s.route("POST /v1/bisect", s.handleBisect)
	s.route("POST /v1/optimize", s.handleOptimize)
	s.route("GET /v1/jobs", s.handleJobList)
	s.route("GET /v1/jobs/{id}", s.handleJobGet)
	s.route("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.route("GET /v1/experiments", s.handleExperimentList)
	s.route("POST /v1/experiments/{id}", s.handleExperimentRun)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /readyz", s.handleReadyz)
	s.route("GET /debug/vars", s.handleDebugVars)
	s.route("GET /metrics", s.handleMetrics)
	s.httpSrv = &http.Server{Handler: s.Handler()}
	return s
}

// route registers h under pattern. The wrapper stamps the pattern on the
// middleware's recorder, which counts the request under it once the mux
// has routed it — per route, so job IDs, experiment IDs and unknown paths
// add no requests_by_endpoint keys. (Request.Pattern carries the same
// string but needs a go1.23 go.mod line.)
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if rec, ok := w.(*statusRecorder); ok {
			rec.pattern = pattern
		}
		h(w, r)
	})
}

// unmatchedEndpoint is the requests_by_endpoint key of every request no
// route matched (404s and 405s).
const unmatchedEndpoint = "unmatched"

// tracer returns the configured tracer, falling back to the process
// default. Nil (the common test state) leaves span instrumentation inert.
func (s *Server) tracer() *obs.Tracer {
	if s.cfg.Tracer != nil {
		return s.cfg.Tracer
	}
	return obs.Default()
}

// PeerHopHeader marks a request as a cluster fill hop: it was sent by a
// peer filling its own cache, not by an end client. A server receiving it
// answers from local cache or compute and never fills from a peer in turn,
// bounding every request to at most one intra-cluster hop even when ring
// views disagree during membership skew. NewPeerFillClient sets it on
// every request.
const PeerHopHeader = "X-Torusd-Peer-Hop"

// Handler returns the full middleware-wrapped handler, suitable for
// httptest servers and embedding. The middleware owns request identity and
// timing: it seeds (or mints) the W3C traceparent, opens the root span,
// labels the request context for CPU profiles, echoes the traceparent on
// the response, and emits metrics plus one structured access-log line.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.add(mRequests, 1)
		s.metrics.add(mInFlight, 1)
		defer s.metrics.add(mInFlight, -1)

		ctx := r.Context()
		traceID, _ := obs.ParseTraceparent(r.Header.Get(traceparentKey))
		tr := s.tracer()
		if tr != nil || obs.CountersEnabled() {
			// Label the request context so CPU samples anywhere downstream
			// (pool workers included, via pprof.Do) attribute to the
			// endpoint. Skipped when observability is off: WithLabels
			// allocates.
			ctx = pprof.WithLabels(ctx, pprof.Labels("endpoint", r.URL.Path))
		}
		ctx, sp := tr.Root(ctx, "http.request", traceID)
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		if id := obs.TraceIDFromContext(ctx); id != "" {
			traceID = id
		}
		var traceparent string
		if traceID == "" {
			// Tracing is off and the caller sent no trace; still mint a
			// request ID so responses and logs correlate.
			traceparent = mintTraceparent()
			traceID = traceparent[3:35]
		} else {
			respSpan := sp.SpanID()
			if respSpan == 0 {
				respSpan = obs.NewSpanID()
			}
			traceparent = obs.FormatTraceparent(traceID, respSpan)
		}
		w.Header().Set(traceparentKey, traceparent)

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		served := r
		if ctx != r.Context() {
			served = r.WithContext(ctx)
		}
		s.mux.ServeHTTP(rec, served)
		if rec.pattern == "" {
			rec.pattern = unmatchedEndpoint
		}
		s.metrics.endpoint(rec.pattern)

		elapsed := time.Since(start)
		s.metrics.add(mLatencyMSTotal, elapsed.Milliseconds())
		s.metrics.reqSeconds.ObserveDuration(elapsed)
		if rec.status >= 400 {
			s.metrics.add(mErrors, 1)
		}
		slow := s.cfg.SlowThreshold > 0 && elapsed >= s.cfg.SlowThreshold
		if slow {
			s.metrics.add(mSlow, 1)
		}
		sp.SetAttrInt("status", int64(rec.status))
		sp.End()
		if s.logger != nil {
			level := slog.LevelInfo
			if slow {
				level = slog.LevelWarn
			}
			s.logger.LogAttrs(r.Context(), level, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Int64("dur_us", elapsed.Microseconds()),
				slog.Int("bytes", rec.bytes),
				slog.String("remote", r.RemoteAddr),
				slog.String("trace", traceID),
				slog.Bool("slow", slow),
			)
		}
	})
}

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown, like net/http.
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// Shutdown gracefully drains in-flight requests (bounded by ctx), closes
// the idle connections of a cluster node's peer-fill clients, then stops
// the worker pool and cancels every async search job.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.CloseIdleConnections()
	}
	s.pool.close()
	s.jobs.close()
	return err
}

// Close releases the worker pool and the job manager without HTTP
// draining — for tests and embedders that never called Serve.
func (s *Server) Close() {
	s.pool.close()
	s.jobs.close()
}

// traceparentKey is obs.TraceparentHeader in canonical MIME form, so
// Header.Get and Header.Set use it without allocating a canonical copy.
const traceparentKey = "Traceparent"

// mintTraceparent returns a fresh sampled traceparent, "00-<trace-id>-
// <span-id>-01", formatted in one pass; bytes [3:35] are its trace ID.
func mintTraceparent() string {
	var ids [24]byte // 16-byte trace ID, then 8-byte span ID
	for {
		if _, err := crand.Read(ids[:]); err != nil {
			// crypto/rand never fails on supported platforms; a broken
			// entropy source is unrecoverable for the process anyway.
			panic("service: crypto/rand failed: " + err.Error())
		}
		// The all-zero IDs are invalid (W3C Trace Context).
		if [16]byte(ids[:16]) != [16]byte{} && [8]byte(ids[16:]) != [8]byte{} {
			break
		}
	}
	var tp [55]byte
	copy(tp[:], "00-")
	hex.Encode(tp[3:35], ids[:16])
	tp[35] = '-'
	hex.Encode(tp[36:52], ids[16:])
	copy(tp[52:], "-01")
	return string(tp[:])
}

// statusRecorder captures the status code and body size for metrics and
// access logs, and the route pattern that served the request.
type statusRecorder struct {
	http.ResponseWriter
	status  int
	bytes   int
	pattern string
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// cacheGet reads the result cache through its failpoint: an injected
// partial fault degrades to a forced miss (the cache is "down" but the
// request survives), an injected error fails the read.
func (s *Server) cacheGet(key string) (any, bool, error) {
	if err := fpCacheGet.Inject(); err != nil {
		if failpoint.IsPartial(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	v, age, ok := s.cache.get(key)
	if ok {
		s.metrics.cacheAge.ObserveDuration(age)
	}
	return v, ok, nil
}

// cachePut fills the result cache through its failpoint: any injected
// fault skips the fill — the response still succeeds, the cache stays
// cold.
func (s *Server) cachePut(key string, v any) {
	if err := fpCachePut.Inject(); err != nil {
		return
	}
	s.cache.put(key, v)
}

// peerFill is the cluster fill stage's per-request plan, built by fillFor
// on a cache miss only when the request may fill from a peer (single-node
// requests and fill hops carry nil and pay nothing).
type peerFill struct {
	path    string
	payload []byte
	decode  func([]byte) (any, error)
}

// countPeerHop counts a request arriving from a peer in peer_hops, whether
// the cache answers it or not.
func (s *Server) countPeerHop(r *http.Request) {
	if s.cfg.Cluster != nil && r.Header.Get(PeerHopHeader) != "" {
		s.metrics.add(mPeerHops, 1)
	}
}

// fillFor plans the peer-fill stage for one request: nil outside cluster
// mode and for requests arriving from peers (the loop guard forbids
// filling again), and otherwise the path + canonical payload + decoder the
// flight leader needs to fetch the key from its owner. req must be a
// pointer to the canonicalized request (a pointer converts to any without
// allocating; the canonical form keeps peer cache keys byte-identical to
// local ones). Handlers call it from execute's miss stage, so a cache hit
// never marshals the payload.
func (s *Server) fillFor(r *http.Request, path string, req any, decode func([]byte) (any, error)) *peerFill {
	if s.cfg.Cluster == nil || r.Header.Get(PeerHopHeader) != "" {
		return nil
	}
	payload, err := json.Marshal(req)
	if err != nil {
		// A canonical request that fails to marshal cannot be forwarded;
		// serve it locally.
		return nil
	}
	return &peerFill{path: path, payload: payload, decode: decode}
}

// runPeerFill executes the fill plan inside the flight leader under the
// cluster.peer_fill span. ok reports a successful fill (the value is
// cached and served); false means compute locally — the availability-first
// contract of the cluster layer.
func (s *Server) runPeerFill(ctx context.Context, key string, f *peerFill) (any, bool) {
	start := time.Now()
	pctx, sp := obs.Start(ctx, "cluster.peer_fill")
	defer sp.End()
	v, served, err := s.cfg.Cluster.Fill(pctx, key, f.path, f.payload, f.decode)
	sp.SetAttrBool("served", served)
	if err != nil {
		sp.SetAttr("error", err.Error())
		s.metrics.add(mPeerFillErrors, 1)
	}
	if !served {
		return nil, false
	}
	s.metrics.peerFill.ObserveDuration(time.Since(start))
	s.metrics.add(mPeerFills, 1)
	s.cachePut(key, v)
	return v, true
}

// execute is the shared cache → [miss] → deadline → coalesce → [peer
// fill] → pool path of every POST endpoint, with one span per pipeline
// stage (cache.get, flight.do, cluster.peer_fill, pool.submit, pool.run)
// recorded under any active trace. A cache hit does nothing else: no
// placement build, no timer, no fill payload.
//
// miss runs once the lookup misses, before anything is counted or
// started. It builds the request's placement (the spec-vs-torus check; a
// *specError fails the request right there) and returns the peer-fill plan
// from fillFor (nil in single-node mode). Then execute applies the
// per-request deadline. Placing the fill inside the flight leader threads
// the singleflight through the cluster, so N nodes asking for one key
// still yield one computation cluster-wide. compute receives the
// trace-carrying context and must return an immutable value; cached
// reports whether this caller was served from the result cache.
func (s *Server) execute(ctx context.Context, key string, miss func() (*peerFill, error), compute func(context.Context) (any, error)) (val any, cached bool, err error) {
	_, csp := obs.Start(ctx, "cache.get")
	v, ok, err := s.cacheGet(key)
	csp.SetAttrBool("hit", ok)
	csp.End()
	if err != nil {
		return nil, false, err
	}
	if ok {
		s.metrics.add(mCacheHits, 1)
		return v, true, nil
	}
	fill, err := miss()
	if err != nil {
		return nil, false, err
	}
	s.metrics.add(mCacheMisses, 1)
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	fctx, fsp := obs.Start(ctx, "flight.do")
	defer fsp.End()
	v, err, shared := s.flight.do(key, func() (any, error) {
		if err := fpFlightLeader.Inject(); err != nil && !failpoint.IsPartial(err) {
			return nil, err
		}
		// Double-check under the flight: a caller that lost the
		// cache-check/flight race to a just-finished leader finds the
		// fresh entry here instead of recomputing.
		if v, ok, err := s.cacheGet(key); err != nil {
			return nil, err
		} else if ok {
			s.metrics.add(mCacheHits, 1)
			return v, nil
		}
		if fill != nil {
			if v, ok := s.runPeerFill(fctx, key, fill); ok {
				return v, nil
			}
		}
		pctx, psp := obs.Start(fctx, "pool.submit")
		defer psp.End()
		v, err := s.pool.submit(fctx, func() (any, error) {
			rctx, rsp := obs.Start(pctx, "pool.run")
			defer rsp.End()
			if s.onCompute != nil {
				s.onCompute(key)
			}
			return compute(rctx)
		})
		if err == nil {
			s.cachePut(key, v)
		}
		return v, err
	})
	fsp.SetAttrBool("shared", shared)
	if shared {
		s.metrics.add(mCoalesced, 1)
	}
	return v, false, err
}

// readRequest enforces the body cap and strict JSON decoding; on failure
// it writes the 400 and reports false.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := decodeStrict(body, v); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// failCompute maps a compute-path error to its HTTP status and writes it.
func (s *Server) failCompute(w http.ResponseWriter, err error) {
	var pe *panicError
	var se *specError
	switch {
	case errors.As(err, &se):
		s.writeError(w, http.StatusBadRequest, se)
	case errors.Is(err, errQueueFull):
		s.metrics.add(mQueueFull, 1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.metrics.add(mTimeouts, 1)
		s.writeError(w, http.StatusGatewayTimeout,
			fmt.Errorf("service: analysis exceeded the %s request deadline", s.cfg.RequestTimeout))
	case errors.As(err, &pe):
		s.metrics.add(mPanics, 1)
		s.writeError(w, http.StatusInternalServerError, pe)
	case errors.Is(err, errPoolClosed):
		s.writeError(w, http.StatusServiceUnavailable, err)
	default:
		s.writeError(w, http.StatusInternalServerError, err)
	}
}

// encodeBuf is a pooled response encoder with its output buffer.
type encodeBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// encodeBufs recycles writeJSON's encoders. Buffers grown past
// maxPooledEncodeBuf (experiment tables) are dropped, not pooled, so the
// pool never pins them.
var encodeBufs = sync.Pool{New: func() any {
	e := new(encodeBuf)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

const maxPooledEncodeBuf = 64 << 10

// writeJSON writes v with the given status; marshal failures degrade to a
// plain 500.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	e := encodeBufs.Get().(*encodeBuf)
	defer func() {
		if e.buf.Cap() <= maxPooledEncodeBuf {
			e.buf.Reset()
			encodeBufs.Put(e)
		}
	}()
	err := e.enc.Encode(v)
	if err == nil {
		err = fpEncode.Inject()
	}
	if err != nil {
		http.Error(w, `{"error":"service: response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(e.buf.Bytes()); err != nil {
		s.metrics.add(mWriteErrors, 1)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	if resp, ok := s.tryAnalytic(r.Context(), req); ok {
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	spec, err := req.canonicalize(s.cfg.MaxNodes)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.countPeerHop(r)
	var p *placement.Placement
	miss := func() (fill *peerFill, err error) {
		if p, err = buildPlacement(spec, req.K, req.D); err != nil {
			return nil, err
		}
		return s.fillFor(r, "/v1/analyze", &req, decodeAnalyzeFill), nil
	}
	v, cached, err := s.execute(r.Context(), req.CacheKey(), miss, func(ctx context.Context) (any, error) {
		resp, err := computeAnalyze(ctx, req, p, s.cfg.loadOptions())
		if err != nil {
			return nil, err
		}
		return resp, nil
	})
	if err != nil {
		s.failCompute(w, err)
		return
	}
	resp := v.(AnalyzeResponse) // value copy; safe to stamp per-caller fields
	resp.Cached = cached
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBounds(w http.ResponseWriter, r *http.Request) {
	var req BoundsRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	spec, err := req.canonicalize(s.cfg.MaxNodes)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.countPeerHop(r)
	var p *placement.Placement
	miss := func() (fill *peerFill, err error) {
		if p, err = buildPlacement(spec, req.K, req.D); err != nil {
			return nil, err
		}
		return s.fillFor(r, "/v1/bounds", &req, decodeBoundsFill), nil
	}
	v, cached, err := s.execute(r.Context(), req.CacheKey(), miss, func(ctx context.Context) (any, error) {
		return computeBounds(ctx, req, p), nil
	})
	if err != nil {
		s.failCompute(w, err)
		return
	}
	resp := v.(BoundsResponse)
	resp.Cached = cached
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBisect(w http.ResponseWriter, r *http.Request) {
	var req BisectRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	spec, err := req.canonicalize(s.cfg.MaxNodes)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.countPeerHop(r)
	var p *placement.Placement
	miss := func() (fill *peerFill, err error) {
		if p, err = buildPlacement(spec, req.K, req.D); err != nil {
			return nil, err
		}
		return s.fillFor(r, "/v1/bisect", &req, decodeBisectFill), nil
	}
	v, cached, err := s.execute(r.Context(), req.CacheKey(), miss, func(ctx context.Context) (any, error) {
		resp, err := computeBisect(ctx, req, p)
		if err != nil {
			return nil, err
		}
		return resp, nil
	})
	if err != nil {
		s.failCompute(w, err)
		return
	}
	resp := v.(BisectResponse)
	resp.Cached = cached
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	all := sweep.All()
	infos := make([]ExperimentInfo, 0, len(all))
	for _, e := range all {
		infos = append(infos, ExperimentInfo{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef})
	}
	s.writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := sweep.ByID(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown experiment %q", id))
		return
	}
	var req ExperimentRequest
	// An empty body selects the quick scale; anything present must decode.
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(bytes.TrimSpace(data)) > 0 {
		if err := decodeStrict(bytes.NewReader(data), &req); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	if err := req.Canonicalize(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.countPeerHop(r)
	key := "experiment|" + e.ID + "|" + req.Scale
	miss := func() (*peerFill, error) {
		return s.fillFor(r, "/v1/experiments/"+id, &req, decodeExperimentFill), nil
	}
	v, cached, err := s.execute(r.Context(), key, miss, func(ctx context.Context) (any, error) {
		resp, err := computeExperiment(ctx, e, req.Scale)
		if err != nil {
			return nil, err
		}
		return resp, nil
	})
	if err != nil {
		s.failCompute(w, err)
		return
	}
	resp := v.(ExperimentRunResponse)
	resp.Cached = cached
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Experiments:   len(sweep.All()),
	})
}

// handleReadyz is the readiness half of the liveness/readiness split:
// /healthz answers "the process is alive" and never fails; /readyz
// answers "route traffic here". In single-node mode a serving process is
// always ready. In cluster mode readiness reflects ring join state, and a
// not-ready node answers 503 so load balancers and the peer readiness
// probe (cluster.PeerTransport.Ready) keep it out of rotation.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{Ready: true, Mode: "single"}
	if cl := s.cfg.Cluster; cl != nil {
		resp.Mode = "cluster"
		resp.Ready = cl.Ready()
		resp.Self = cl.Self()
		resp.Epoch = cl.Epoch()
		resp.Peers = len(cl.Status().Peers)
		resp.PeersDown = cl.DownPeers()
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, resp)
}

// handleDebugVars serves the server's own expvar map under the "torusd"
// key. Unlike expvar.Handler it does not touch the process-global
// namespace, so every Server instance reports only its own counters.
func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	buf.WriteString("{\"torusd\": ")
	buf.WriteString(s.metrics.vars.String())
	buf.WriteString("}\n")
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.metrics.add(mWriteErrors, 1)
	}
}

// ExpvarMap exposes the server's metrics map, letting cmd/torusd publish
// it into the process-global expvar namespace.
func (s *Server) ExpvarMap() *expvar.Map { return s.metrics.vars }
