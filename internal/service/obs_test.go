package service

// Tests for the observability layer at the service boundary: the /metrics
// Prometheus page, per-request trace trees on /debug/traces, W3C
// traceparent echo and client propagation, and slow-request logging.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"torusnet/internal/obs"
)

// promSampleRe matches one Prometheus text-format sample line.
var promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// TestMetricsPrometheusFormat drives a request through the server, fetches
// /metrics, and validates the exposition format line by line plus the
// presence and consistency of the key families.
func TestMetricsPrometheusFormat(t *testing.T) {
	s, c, stop := newTestServer(t, Config{Workers: 2})
	defer stop()
	ctx := context.Background()

	if _, err := c.Analyze(ctx, AnalyzeRequest{K: 5, D: 2, Placement: "linear", Routing: "ODR"}); err != nil {
		t.Fatalf("analyze: %v", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatalf("close body: %v", cerr)
	}
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}

	text := string(body)
	samples := map[string]string{}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Fatalf("line %d is not valid Prometheus text format: %q", i+1, line)
		}
		samples[line[:strings.LastIndexByte(line, ' ')]] = line[strings.LastIndexByte(line, ' ')+1:]
	}

	for _, want := range []string{
		"torusd_requests_total", "torusd_cache_misses_total", "torusd_in_flight",
		"torusd_pool_running", "torusd_pool_queued",
		"torusd_request_duration_seconds_count", "torusd_pool_queue_wait_seconds_count",
		"torusd_cache_age_seconds_count",
		"torusd_uptime_seconds",
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("family %s missing from /metrics", want)
		}
	}
	if v := samples["torusd_requests_total"]; v == "0" {
		t.Errorf("torusd_requests_total = %s after a request", v)
	}
	// Histogram consistency: the +Inf bucket must equal the count.
	if inf, cnt := samples[`torusd_request_duration_seconds_bucket{le="+Inf"}`],
		samples["torusd_request_duration_seconds_count"]; inf != cnt {
		t.Errorf("request duration +Inf bucket %s != count %s", inf, cnt)
	}
	// The gated routing-kernel counters are registered process-globally and
	// must render even with the gate off.
	if !strings.Contains(text, "torusnet_routing_odr_pairs_total") {
		t.Error("gated obs counters missing from /metrics")
	}
}

// TestTraceHasPipelineStages asserts one uncached /v1/analyze request
// exports a well-formed trace whose span tree names every pipeline stage —
// the acceptance criterion asks for at least five.
func TestTraceHasPipelineStages(t *testing.T) {
	tracer := obs.NewTracer(8)
	s, c, stop := newTestServer(t, Config{Workers: 2, Tracer: tracer})
	defer stop()

	if _, err := c.Analyze(context.Background(), AnalyzeRequest{K: 6, D: 2, Placement: "linear", Routing: "ODR"}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	_ = s

	traces := tracer.Snapshot(0)
	if len(traces) == 0 {
		t.Fatal("no traces exported")
	}
	var tr *obs.Trace
	for i := range traces {
		for _, sp := range traces[i].Spans {
			if sp.Name == "core.analyze" {
				tr = &traces[i]
			}
		}
	}
	if tr == nil {
		t.Fatalf("no trace contains core.analyze; got %d traces", len(traces))
	}
	if err := tr.Wellformed(); err != nil {
		t.Fatalf("trace not well-formed: %v", err)
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{
		"http.request", "cache.get", "flight.do", "pool.submit", "pool.run",
		"core.analyze", "load.compute", "load.merge", "core.bounds",
	} {
		if !names[want] {
			t.Errorf("span %q missing from trace; have %v", want, names)
		}
	}
	if len(names) < 5 {
		t.Errorf("trace has %d named stages, want >= 5", len(names))
	}
}

// TestTraceparentEchoAndSeeding checks that an incoming traceparent is
// honored — the response echoes the same trace ID and the exported trace
// carries it — and that without one the server mints a fresh valid ID.
func TestTraceparentEchoAndSeeding(t *testing.T) {
	tracer := obs.NewTracer(8)
	s, _, stop := newTestServer(t, Config{Workers: 2, Tracer: tracer})
	defer stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const inID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceparentHeader, "00-"+inID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	gotID, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
	if !ok || gotID != inID {
		t.Errorf("response traceparent = %q (ok=%v), want trace ID %s",
			resp.Header.Get(obs.TraceparentHeader), ok, inID)
	}
	found := false
	for _, tr := range tracer.Snapshot(0) {
		if tr.TraceID == inID {
			found = true
			if err := tr.Wellformed(); err != nil {
				t.Errorf("seeded trace: %v", err)
			}
		}
	}
	if !found {
		t.Error("no exported trace carries the incoming trace ID")
	}

	// No incoming header: the response still carries a valid fresh ID.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if cerr := resp2.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if id, ok := obs.ParseTraceparent(resp2.Header.Get(obs.TraceparentHeader)); !ok || id == inID {
		t.Errorf("unseeded response traceparent = %q, want fresh valid ID",
			resp2.Header.Get(obs.TraceparentHeader))
	}
}

// TestClientPropagatesTraceparent asserts the typed client forwards the
// context's trace ID in one request whose parent span ID is freshly
// minted, not the caller's own span.
func TestClientPropagatesTraceparent(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get(obs.TraceparentHeader))
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(HealthResponse{Status: "ok"}); err != nil {
			t.Errorf("encode: %v", err)
		}
	}))
	defer ts.Close()

	tracer := obs.NewTracer(4)
	ctx, root := tracer.Root(context.Background(), "test.call", "")
	defer root.End()
	traceID := obs.TraceIDFromContext(ctx)

	c := NewClient(ts.URL)
	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 {
		t.Fatalf("server saw %d requests, want 1", len(seen))
	}
	id, ok := obs.ParseTraceparent(seen[0])
	if !ok || id != traceID {
		t.Fatalf("traceparent = %q, want trace ID %s", seen[0], traceID)
	}
	if seen[0] == obs.FormatTraceparent(traceID, root.SpanID()) {
		t.Errorf("traceparent %q reuses the caller's span ID instead of a fresh one", seen[0])
	}
}

// TestSlowRequestLogging asserts requests over SlowThreshold are logged at
// warn level with slow=true and counted in the slow-request counter.
func TestSlowRequestLogging(t *testing.T) {
	var logBuf syncBuffer
	s, c, stop := newTestServer(t, Config{
		Workers: 2, AccessLog: &logBuf, SlowThreshold: time.Nanosecond,
	})
	defer stop()

	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("health: %v", err)
	}
	line := logBuf.String()
	for _, want := range []string{`"level":"WARN"`, `"slow":true`, `"trace":"`} {
		if !strings.Contains(line, want) {
			t.Errorf("access log line lacks %s: %s", want, line)
		}
	}
	if got := s.metrics.get(mSlow); got < 1 {
		t.Errorf("slow counter = %d, want >= 1", got)
	}
}

// TestHistogramBucketCumulative renders one histogram through the full
// /metrics path and checks cumulative bucket monotonicity.
func TestHistogramBucketCumulative(t *testing.T) {
	s, c, stop := newTestServer(t, Config{Workers: 2})
	defer stop()
	for i := 0; i < 3; i++ {
		if _, err := c.Health(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	last := int64(-1)
	n := 0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "torusd_request_duration_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = v
		n++
	}
	if n == 0 {
		t.Fatal("no request-duration bucket lines")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for access logs written from
// handler goroutines while the test reads them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestEndpointCounterCardinality pins requests_by_endpoint to route
// patterns: polled job IDs and unknown paths must not each mint a
// permanent expvar key and /metrics series.
func TestEndpointCounterCardinality(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	serve := func(method, path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code
	}
	if st := serve(http.MethodPost, "/v1/bounds", `{"k":4,"d":2,"placement":"linear"}`); st != http.StatusOK {
		t.Fatalf("bounds: status %d", st)
	}
	for i := 0; i < 50; i++ {
		if st := serve(http.MethodGet, fmt.Sprintf("/v1/jobs/j%d", i), ""); st != http.StatusNotFound {
			t.Fatalf("poll of an unknown job: status %d, want 404", st)
		}
		if st := serve(http.MethodGet, fmt.Sprintf("/no/such/path/%d", i), ""); st != http.StatusNotFound {
			t.Fatalf("unknown path: status %d, want 404", st)
		}
	}
	if st := serve(http.MethodGet, "/v1/analyze", ""); st != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/analyze: status %d, want 405", st)
	}

	keys, counts := s.metrics.endpointCounts()
	const routes = 13 // the patterns New registers
	if len(keys) > routes+1 {
		t.Errorf("requests_by_endpoint has %d keys after ID-bearing and unknown paths, want <= %d: %v", len(keys), routes+1, keys)
	}
	for key, want := range map[string]int64{
		"POST /v1/bounds":   1,
		"GET /v1/jobs/{id}": 50,
		unmatchedEndpoint:   51,
	} {
		if counts[key] != want {
			t.Errorf("requests_by_endpoint[%q] = %d, want %d", key, counts[key], want)
		}
	}
}

// TestUntracedTraceparent checks the request ID minted with tracing off:
// the echoed traceparent is valid W3C and its trace ID is the access log's.
func TestUntracedTraceparent(t *testing.T) {
	var accessLog syncBuffer
	s := New(Config{Workers: 1, AccessLog: &accessLog})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	tp := rec.Header().Get(obs.TraceparentHeader)
	id, ok := obs.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("untraced response traceparent %q does not parse", tp)
	}
	if want := `"trace":"` + id + `"`; !strings.Contains(accessLog.String(), want) {
		t.Errorf("access log %q lacks the response's trace ID %s", accessLog.String(), id)
	}
}
