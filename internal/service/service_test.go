package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"torusnet/internal/cliutil"
	"torusnet/internal/load"
	"torusnet/internal/placement"
	"torusnet/internal/torus"
)

// newTestServer boots a Server behind httptest with small, deterministic
// sizing. The returned cleanup stops both.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	c := NewClient(ts.URL)
	return s, c, func() {
		ts.Close()
		s.Close()
	}
}

// TestEndpointsEndToEnd drives every endpoint through the typed client
// over real HTTP, including the cache-hit path observable at /debug/vars.
func TestEndpointsEndToEnd(t *testing.T) {
	var accessLog bytes.Buffer
	_, c, stop := newTestServer(t, Config{Workers: 4, AccessLog: &accessLog})
	defer stop()
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if h.Status != "ok" || h.Experiments == 0 {
		t.Fatalf("healthz = %+v", h)
	}

	req := AnalyzeRequest{K: 6, D: 2, Placement: "linear", Routing: "ODR"}
	first, err := c.Analyze(ctx, req)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if first.Cached {
		t.Error("first analyze reported cached")
	}
	if first.Placement != "linear:0" || first.Routing != "odr" {
		t.Errorf("canonical echo = %q %q", first.Placement, first.Routing)
	}
	if first.Processors != 6 || !first.Uniform || first.EMax <= 0 {
		t.Errorf("analyze body: %+v", first)
	}
	if first.OptimalityRatio < 1 {
		t.Errorf("optimality ratio %v < 1", first.OptimalityRatio)
	}

	// The identical request — under a different spelling — must hit the
	// cache with bit-identical numbers.
	second, err := c.Analyze(ctx, AnalyzeRequest{K: 6, D: 2, Placement: "linear:-6", Routing: "odr"})
	if err != nil {
		t.Fatalf("analyze (repeat): %v", err)
	}
	if !second.Cached {
		t.Error("repeat analyze not served from cache")
	}
	if second.EMax != first.EMax || second.TotalLoad != first.TotalLoad {
		t.Errorf("cached result differs: %v vs %v", second.EMax, first.EMax)
	}

	vars, err := c.Vars(ctx)
	if err != nil {
		t.Fatalf("vars: %v", err)
	}
	if hits, ok := vars["cache_hits"].(float64); !ok || hits < 1 {
		t.Errorf("cache_hits = %v, want >= 1", vars["cache_hits"])
	}

	bounds, err := c.Bounds(ctx, BoundsRequest{K: 6, D: 2, Placement: "linear"})
	if err != nil {
		t.Fatalf("bounds: %v", err)
	}
	if bounds.BlaumBound <= 0 || bounds.BestLowerBound < bounds.BlaumBound {
		t.Errorf("bounds body: %+v", bounds)
	}
	if bounds.BestLowerBound > first.EMax {
		t.Errorf("lower bound %v above measured E_max %v", bounds.BestLowerBound, first.EMax)
	}

	for _, method := range []string{"sweep", "best-sweep", "dimension"} {
		bi, err := c.Bisect(ctx, BisectRequest{K: 6, D: 2, Placement: "multi:2", Method: method})
		if err != nil {
			t.Fatalf("bisect %s: %v", method, err)
		}
		if bi.Cut.Width <= 0 || bi.SeparatorBound <= 0 {
			t.Errorf("bisect %s body: %+v", method, bi)
		}
		if method != "dimension" && !bi.Cut.Balanced {
			t.Errorf("bisect %s: cut unbalanced: %+v", method, bi.Cut)
		}
	}

	infos, err := c.Experiments(ctx)
	if err != nil {
		t.Fatalf("experiments: %v", err)
	}
	if len(infos) < 10 {
		t.Fatalf("experiment registry lists %d entries", len(infos))
	}
	run1, err := c.RunExperiment(ctx, infos[0].ID, ExperimentRequest{})
	if err != nil {
		t.Fatalf("run experiment: %v", err)
	}
	if run1.Scale != "quick" || run1.Cached {
		t.Errorf("experiment run: %+v", run1)
	}
	var table struct {
		ID   string     `json:"id"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(run1.Table, &table); err != nil {
		t.Fatalf("experiment table JSON: %v", err)
	}
	if table.ID != infos[0].ID || len(table.Rows) == 0 {
		t.Errorf("experiment table: %+v", table)
	}
	run2, err := c.RunExperiment(ctx, infos[0].ID, ExperimentRequest{Scale: "quick"})
	if err != nil {
		t.Fatalf("run experiment (repeat): %v", err)
	}
	if !run2.Cached {
		t.Error("repeat experiment run not served from cache")
	}

	if !strings.Contains(accessLog.String(), `"path":"/v1/analyze"`) {
		t.Error("access log missing /v1/analyze entry")
	}
}

// TestErrorStatuses verifies the HTTP status mapping of the failure paths.
func TestErrorStatuses(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 2})
	defer stop()
	ctx := context.Background()

	wantStatus := func(t *testing.T, err error, status int) {
		t.Helper()
		var apiErr *APIError
		if err == nil {
			t.Fatalf("expected HTTP %d, got success", status)
		}
		if !asAPIError(err, &apiErr) {
			t.Fatalf("expected *APIError, got %T: %v", err, err)
		}
		if apiErr.Status != status {
			t.Fatalf("status = %d (%s), want %d", apiErr.Status, apiErr.Message, status)
		}
	}

	_, err := c.Analyze(ctx, AnalyzeRequest{K: 1, D: 2, Placement: "linear", Routing: "odr"})
	wantStatus(t, err, http.StatusBadRequest)
	_, err = c.Analyze(ctx, AnalyzeRequest{K: 6, D: 2, Placement: "nope", Routing: "odr"})
	wantStatus(t, err, http.StatusBadRequest)
	_, err = c.Analyze(ctx, AnalyzeRequest{K: 6, D: 2, Placement: "linear", Routing: "nope"})
	wantStatus(t, err, http.StatusBadRequest)
	_, err = c.Analyze(ctx, AnalyzeRequest{K: 100, D: 3, Placement: "linear", Routing: "odr"})
	wantStatus(t, err, http.StatusBadRequest) // k^d over the serving ceiling
	_, err = c.Bisect(ctx, BisectRequest{K: 6, D: 2, Placement: "linear", Method: "banana"})
	wantStatus(t, err, http.StatusBadRequest)
	_, err = c.RunExperiment(ctx, "E9999", ExperimentRequest{})
	wantStatus(t, err, http.StatusNotFound)
	_, err = c.RunExperiment(ctx, "E1", ExperimentRequest{Scale: "huge"})
	wantStatus(t, err, http.StatusBadRequest)

	// Raw HTTP edges the typed client cannot produce: wrong method,
	// malformed JSON, unknown fields, trailing garbage.
	base := c.base
	for _, tc := range []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"method not allowed", http.MethodGet, "/v1/analyze", "", http.StatusMethodNotAllowed},
		{"malformed JSON", http.MethodPost, "/v1/analyze", "{", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/analyze", `{"k":6,"d":2,"placement":"linear","routing":"odr","zzz":1}`, http.StatusBadRequest},
		{"trailing data", http.MethodPost, "/v1/analyze", `{"k":6,"d":2,"placement":"linear","routing":"odr"} {}`, http.StatusBadRequest},
		{"trailing brace", http.MethodPost, "/v1/analyze", `{"k":8,"d":2,"placement":"linear","routing":"odr"}}`, http.StatusBadRequest},
		{"trailing bracket", http.MethodPost, "/v1/analyze", `{"k":8,"d":2,"placement":"linear","routing":"odr"}]`, http.StatusBadRequest},
		{"not found", http.MethodGet, "/v1/nothing", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

func asAPIError(err error, target **APIError) bool {
	for err != nil {
		if e, ok := err.(*APIError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestCoalescing asserts the acceptance criterion: N concurrent identical
// requests run the underlying analysis exactly once. The compute hook
// blocks the leader until every request is in flight, so the followers
// must coalesce (or, if one loses the race past a finished leader, be
// absorbed by the in-flight double-check against the fresh cache entry).
func TestCoalescing(t *testing.T) {
	const n = 8
	var computes atomic.Int32
	release := make(chan struct{})
	s := New(Config{Workers: 4})
	s.onCompute = func(string) {
		computes.Add(1)
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	req := AnalyzeRequest{K: 8, D: 2, Placement: "linear:3", Routing: "udr"}
	results := make([]*AnalyzeResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Analyze(ctx, req)
		}(i)
	}

	// Release the leader only once all n requests are inside the handler.
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.get(mInFlight) < n {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("only %d requests in flight", s.metrics.get(mInFlight))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("analysis executed %d times for %d concurrent identical requests, want exactly 1", got, n)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].EMax != results[0].EMax {
			t.Errorf("request %d: E_max %v != %v", i, results[i].EMax, results[0].EMax)
		}
	}
	if co := s.metrics.get(mCoalesced); co == 0 {
		t.Error("no request was counted as coalesced")
	}
}

// TestBackpressure pins the overload contract on the default Config: it
// fills the single worker and the one queue slot, then asserts the next
// cache miss is shed with 429 + Retry-After. A saturated pool never answers
// a miss with a 200: every /v1/analyze answer is exact and computed in the
// pool.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 4)
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.onCompute = func(key string) {
		started <- key
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	reqAt := func(residue string) AnalyzeRequest {
		return AnalyzeRequest{K: 6, D: 2, Placement: "linear:" + residue, Routing: "odr"}
	}
	done := make(chan error, 2)
	go func() { _, err := c.Analyze(ctx, reqAt("0")); done <- err }()
	<-started // worker busy
	go func() { _, err := c.Analyze(ctx, reqAt("1")); done <- err }()
	// Wait until the second job occupies the queue slot.
	deadline := time.Now().Add(10 * time.Second)
	for len(s.pool.jobs) < 1 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Third distinct request: queue full → 429.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"k":6,"d":2,"placement":"linear:2","routing":"odr"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status %d on a saturated pool, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if got := s.metrics.get(mQueueFull); got != 1 {
		t.Errorf("queue_full = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("blocked request %d failed after release: %v", i, err)
		}
	}
	<-started // drain the second job's start signal
}

// TestPanicIsolation poisons one computation and verifies the request gets
// a 500 while the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	var first atomic.Bool
	first.Store(true)
	s := New(Config{Workers: 2})
	s.onCompute = func(string) {
		if first.CompareAndSwap(true, false) {
			panic("poisoned request")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	_, err := c.Analyze(ctx, AnalyzeRequest{K: 6, D: 2, Placement: "linear", Routing: "odr"})
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("poisoned request: err = %v, want HTTP 500", err)
	}
	if !strings.Contains(apiErr.Message, "panicked") {
		t.Errorf("500 message %q does not mention the panic", apiErr.Message)
	}
	if got := s.metrics.get(mPanics); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}

	// The pool worker survived; an identical retry succeeds (the failed
	// run was not cached).
	resp, err := c.Analyze(ctx, AnalyzeRequest{K: 6, D: 2, Placement: "linear", Routing: "odr"})
	if err != nil {
		t.Fatalf("post-panic request: %v", err)
	}
	if resp.Cached {
		t.Error("panicked computation leaked into the cache")
	}
}

// TestRequestDeadline pins a tiny request timeout and asserts the 504
// mapping when the analysis cannot finish in time.
func TestRequestDeadline(t *testing.T) {
	block := make(chan struct{})
	s := New(Config{Workers: 1, RequestTimeout: 20 * time.Millisecond})
	s.onCompute = func(string) { <-block }
	ts := httptest.NewServer(s.Handler())
	// Unblock the worker before s.Close waits for the pool to drain.
	defer func() {
		close(block)
		ts.Close()
		s.Close()
	}()
	c := NewClient(ts.URL)

	_, err := c.Analyze(context.Background(), AnalyzeRequest{K: 6, D: 2, Placement: "linear", Routing: "odr"})
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("err = %v, want HTTP 504", err)
	}
	if got := s.metrics.get(mTimeouts); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
}

// TestGracefulShutdown verifies Shutdown drains an in-flight analysis:
// the slow request completes with 200 and Serve returns ErrServerClosed.
func TestGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	s := New(Config{Workers: 1})
	s.onCompute = func(key string) {
		started <- key
		<-release
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	c := NewClient("http://" + ln.Addr().String())

	reqDone := make(chan error, 1)
	go func() {
		_, err := c.Analyze(context.Background(), AnalyzeRequest{K: 6, D: 2, Placement: "linear", Routing: "odr"})
		reqDone <- err
	}()
	<-started

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight request; release it and expect
	// everything to finish cleanly.
	time.Sleep(20 * time.Millisecond)
	close(release)

	if err := <-reqDone; err != nil {
		t.Errorf("in-flight request failed during graceful shutdown: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestStoppedServerKeepsNoAnswers checks that Shutdown and Close each
// empty the result cache: a stopped server that stays referenced pins no
// answer, a repeat request is not answered from cache, and nothing a
// stopped server is still handed is cached.
func TestStoppedServerKeepsNoAnswers(t *testing.T) {
	bodies := []struct{ path, body string }{
		{"/v1/analyze", `{"k":8,"d":2,"placement":"random:16:3","routing":"udr"}`},
		{"/v1/bounds", `{"k":8,"d":2,"placement":"random:16:3"}`},
		{"/v1/bisect", `{"k":8,"d":2,"placement":"random:16:3","method":"sweep"}`},
	}
	for _, stop := range []struct {
		name string
		stop func(*Server) error
	}{
		{"Shutdown", func(s *Server) error { return s.Shutdown(context.Background()) }},
		{"Close", func(s *Server) error { s.Close(); return nil }},
	} {
		t.Run(stop.name, func(t *testing.T) {
			s := New(Config{Workers: 1})
			defer s.Close()
			h := s.Handler()
			post := func(path, body string) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
				return rec
			}
			for _, b := range bodies {
				for _, want := range []string{`"cached":false`, `"cached":true`} {
					if rec := post(b.path, b.body); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), want) {
						t.Fatalf("running %s: status %d, body %s, want %s", b.path, rec.Code, rec.Body, want)
					}
				}
			}
			if n := s.cache.len(); n != len(bodies) {
				t.Fatalf("running server caches %d answers, want %d", n, len(bodies))
			}
			if err := stop.stop(s); err != nil {
				t.Fatal(err)
			}
			if n := s.cache.len(); n != 0 {
				t.Errorf("stopped server caches %d answers, want 0", n)
			}
			hits := s.metrics.get(mCacheHits)
			for _, b := range bodies {
				if rec := post(b.path, b.body); rec.Code == http.StatusOK || strings.Contains(rec.Body.String(), `"cached":true`) {
					t.Errorf("stopped %s answered status %d, body %s, want no cached answer", b.path, rec.Code, rec.Body)
				}
			}
			if got := s.metrics.get(mCacheHits); got != hits {
				t.Errorf("stopped server counted %d cache hits, want none", got-hits)
			}
			s.cache.put("analyze|late", &analyzeRecord{})
			if n := s.cache.len(); n != 0 {
				t.Errorf("stopped server cached a late answer: %d entries, want 0", n)
			}
		})
	}
}

// TestLRUCacheTTLAndEviction unit-tests the cache mechanics with an
// injected clock.
func TestLRUCacheTTLAndEviction(t *testing.T) {
	now := time.Unix(0, 0)
	c := newLRUCache(2, time.Minute, func() time.Time { return now })

	c.put("a", 1)
	c.put("b", 2)
	if v, _, ok := c.get("a"); !ok || v.(int) != 1 {
		t.Fatal("a missing")
	}
	c.put("c", 3) // evicts b (least recently used after the a touch)
	if _, _, ok := c.get("b"); ok {
		t.Error("b survived past capacity")
	}
	if _, _, ok := c.get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}

	now = now.Add(30 * time.Second)
	if _, age, ok := c.get("a"); !ok || age != 30*time.Second {
		t.Errorf("a: age=%v ok=%v, want 30s hit", age, ok)
	}

	now = now.Add(2 * time.Minute)
	if _, _, ok := c.get("a"); ok {
		t.Error("a survived past its TTL")
	}
	if _, _, ok := c.get("c"); ok {
		t.Error("c survived past its TTL")
	}

	// ttl <= 0 disables expiry.
	forever := newLRUCache(1, 0, func() time.Time { return now.Add(1000 * time.Hour) })
	forever.put("x", 9)
	if _, _, ok := forever.get("x"); !ok {
		t.Error("entry expired with TTL disabled")
	}
}

// TestDecodeAnalyzeRequest covers validation and canonicalization,
// including idempotence of the canonical form.
func TestDecodeAnalyzeRequest(t *testing.T) {
	bad := []string{
		``,
		`null`, // decodes to zero request: k=0 invalid
		`{"k":1,"d":2,"placement":"linear","routing":"odr"}`,
		`{"k":6,"d":0,"placement":"linear","routing":"odr"}`,
		`{"k":6,"d":2,"placement":"martian","routing":"odr"}`,
		`{"k":6,"d":2,"placement":"linear","routing":"martian"}`,
		`{"k":6,"d":2,"placement":"multi:7","routing":"odr"}`,   // t > k wraps onto itself
		`{"k":6,"d":2,"placement":"random:99","routing":"odr"}`, // count > k^d
		`{"k":1000,"d":4,"placement":"linear","routing":"odr"}`, // over MaxNodes
		`{"k":6,"d":2,"placement":"linear","routing":"odr","extra":true}`,
		`{"k":6,"d":2,"placement":"linear","routing":"odr"}[]`,
	}
	for _, body := range bad {
		if _, err := DecodeAnalyzeRequest([]byte(body)); err == nil {
			t.Errorf("accepted %q", body)
		}
	}

	canon := map[string]AnalyzeRequest{
		`{"k":8,"d":2,"placement":"linear:-1","routing":"ODRMULTI"}`: {K: 8, D: 2, Placement: "linear:7", Routing: "odr-multi"},
		`{"k":8,"d":2,"placement":"linear","routing":"FAR"}`:         {K: 8, D: 2, Placement: "linear:0", Routing: "far"},
		`{"k":8,"d":2,"placement":"multi:2","routing":"udrmulti"}`:   {K: 8, D: 2, Placement: "multi:2:0", Routing: "udr-multi"},
		`{"k":8,"d":2,"placement":"diagonal:9","routing":"udr"}`:     {K: 8, D: 2, Placement: "diagonal:1", Routing: "udr"},
		`{"k":8,"d":2,"placement":"random:4","routing":"odr"}`:       {K: 8, D: 2, Placement: "random:4:1", Routing: "odr"},
		`{"k":4,"d":3,"placement":"full","routing":"odr"}`:           {K: 4, D: 3, Placement: "full", Routing: "odr"},
		`{"k":8,"d":2,"placement":" linear:15 ","routing":" odr "}`:  {K: 8, D: 2, Placement: "linear:7", Routing: "odr"},
	}
	for body, want := range canon {
		got, err := DecodeAnalyzeRequest([]byte(body))
		if err != nil {
			t.Errorf("%q: %v", body, err)
			continue
		}
		if *got != want {
			t.Errorf("%q canonicalized to %+v, want %+v", body, *got, want)
		}
		// Idempotence: canonicalizing the canonical form is a no-op.
		again := *got
		if err := again.Canonicalize(DefaultMaxNodes); err != nil {
			t.Errorf("re-canonicalize %+v: %v", *got, err)
		}
		if again != *got {
			t.Errorf("canonicalization not idempotent: %+v -> %+v", *got, again)
		}
		if again.CacheKey() != got.CacheKey() {
			t.Errorf("cache key drifted: %q vs %q", again.CacheKey(), got.CacheKey())
		}
	}
}

// TestCacheHitCostIndependentOfTorus pins the cache-hit contract: a hit
// answers from the cache without building the placement or arming a
// timer, so it allocates the same on T^4_8 random:2048 as on T^2_8
// random:8 — no O(k^d) work happens on a hit.
func TestCacheHitCostIndependentOfTorus(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	hitCost := func(req AnalyzeRequest) (allocs, bytesPerHit float64) {
		canon := req
		if err := canon.Canonicalize(DefaultMaxNodes); err != nil {
			t.Fatal(err)
		}
		// Warm the key directly: computing T^4_8 random:2048 would take
		// minutes, and only the hit path is under test.
		s.cache.put(canon.CacheKey(), &analyzeRecord{})
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hit := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached":true`) {
				t.Fatalf("%+v: status %d, body %s, want a cache hit", req, rec.Code, rec.Body)
			}
		}
		const runs = 200
		allocs = testing.AllocsPerRun(runs, hit)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			hit()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := hitCost(AnalyzeRequest{K: 8, D: 2, Placement: "random:8", Routing: "udr"})
	bigAllocs, bigBytes := hitCost(AnalyzeRequest{K: 8, D: 4, Placement: "random:2048", Routing: "udr"})
	// Under -race, sync.Pool drops a random quarter of its Puts, so the
	// encode buffer's allocations stop being an exact count.
	if bigAllocs != smallAllocs && !raceBuild() {
		t.Errorf("a cache hit allocates %.0f times on T^4_8 and %.0f on T^2_8, want equal", bigAllocs, smallAllocs)
	}
	// The count alone cannot tell: a build makes as many allocations on
	// either torus, but about 20 KiB more on T^4_8 random:2048.
	if bigBytes > smallBytes+1024 {
		t.Errorf("a cache hit allocates %.0f B on T^4_8 and %.0f B on T^2_8, want within 1 KiB", bigBytes, smallBytes)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, st := range bi.Settings {
		if st.Key == "-race" {
			return st.Value == "true"
		}
	}
	return false
}

// TestInvalidPlacementRejectedOnMiss checks that a spec which does not fit
// its torus fails on the miss path with the builder's message, before the
// flight, the pool and any peer: nothing computes, nothing is cached, and
// the miss is not counted.
func TestInvalidPlacementRejectedOnMiss(t *testing.T) {
	var computes atomic.Int64
	s, c, stop := newTestServer(t, Config{Workers: 1, OnCompute: func(string) { computes.Add(1) }})
	defer stop()
	ctx := context.Background()
	misses := s.metrics.get(mCacheMisses)
	for _, tc := range []struct {
		req  AnalyzeRequest
		want string
	}{
		{AnalyzeRequest{K: 8, D: 2, Placement: "multi:9", Routing: "odr"}, "placement: t=9 exceeds k=8 (placement would wrap onto itself)"},
		{AnalyzeRequest{K: 8, D: 2, Placement: "random:70", Routing: "odr"}, "placement: random count 70 out of range [0,64]"},
	} {
		for i := 0; i < 2; i++ { // the second ask proves nothing was cached
			_, err := c.Analyze(ctx, tc.req)
			var apiErr *APIError
			if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Message != tc.want {
				t.Fatalf("%s ask %d: err %v, want 400 %q", tc.req.Placement, i+1, err, tc.want)
			}
		}
	}
	if n := computes.Load(); n != 0 {
		t.Errorf("invalid specs reached the pool %d times, want 0", n)
	}
	if got := s.metrics.get(mCacheMisses); got != misses {
		t.Errorf("cache_misses moved %d -> %d on invalid specs", misses, got)
	}

	// In a cluster, a node rejects the spec itself: the key's owner never
	// sees a fill hop.
	clients, views, stopPair := newChaosClusterPair(t)
	defer stopPair()
	owner := views[1].Self()
	var req AnalyzeRequest
	for k := 4; k <= 8 && req.K == 0; k++ {
		for _, routing := range []string{"odr", "odr-multi", "udr", "udr-multi", "far"} {
			cand := AnalyzeRequest{K: k, D: 2, Placement: "multi:9", Routing: routing}
			canon := cand
			if err := canon.Canonicalize(DefaultMaxNodes); err != nil {
				t.Fatal(err)
			}
			if o, err := views[0].Owner(canon.CacheKey()); err == nil && o == owner {
				req = cand
				break
			}
		}
	}
	if req.K == 0 {
		t.Fatal("no invalid multi:9 key homed on node 1")
	}
	for i := 0; i < 2; i++ {
		_, err := clients[0].Analyze(ctx, req)
		var apiErr *APIError
		if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("cluster ask %d: err %v, want 400", i+1, err)
		}
	}
	vars, err := clients[1].Vars(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hops, _ := vars["peer_hops"].(float64); hops != 0 {
		t.Errorf("owner served %.0f fill hops for an invalid spec, want 0", hops)
	}
	if fills := clusterVar(views[0].Vars(), "fills"); fills != 0 {
		t.Errorf("node 0 attempted %d peer fills for an invalid spec, want 0", fills)
	}
}

// TestCacheKeysMatchSprintf pins cache keys and canonical spellings to
// the fmt.Sprintf forms they replaced, byte for byte: keys are hashed onto
// the cluster ring, so a drift would re-home every key.
func TestCacheKeysMatchSprintf(t *testing.T) {
	for _, spec := range []string{
		"linear", "linear:-1", "linear:123456", "multi:2", "multi:3:-7", "multi:9",
		"diagonal:9", "diagonal", "full", "random:4", "random:70:-3", "random:5:9223372036854775807",
	} {
		for _, k := range []int{3, 8, 200} {
			a := AnalyzeRequest{K: k, D: 2, Placement: spec, Routing: "UDRmulti"}
			if err := a.Canonicalize(1 << 20); err != nil {
				t.Fatalf("%s k=%d: %v", spec, k, err)
			}
			parsed, err := cliutil.ParsePlacement(spec)
			if err != nil {
				t.Fatal(err)
			}
			var want string
			switch v := parsed.(type) {
			case placement.Linear:
				want = fmt.Sprintf("linear:%d", torus.Mod(v.C, k))
			case placement.MultipleLinear:
				want = fmt.Sprintf("multi:%d:%d", v.T, torus.Mod(v.Start, k))
			case placement.ShiftedDiagonal:
				want = fmt.Sprintf("diagonal:%d", torus.Mod(v.Shift, k))
			case placement.Full:
				want = "full"
			case placement.Random:
				want = fmt.Sprintf("random:%d:%d", v.Count, v.Seed)
			}
			if a.Placement != want {
				t.Errorf("%s k=%d: canonical spelling %q, want %q", spec, k, a.Placement, want)
			}
			if got, want := a.CacheKey(), fmt.Sprintf("analyze|k=%d|d=%d|p=%s|a=%s", a.K, a.D, a.Placement, a.Routing); got != want {
				t.Errorf("analyze key %q, want %q", got, want)
			}
			b := BoundsRequest{K: k, D: 2, Placement: spec}
			if err := b.Canonicalize(1 << 20); err != nil {
				t.Fatal(err)
			}
			if got, want := b.CacheKey(), fmt.Sprintf("bounds|k=%d|d=%d|p=%s", b.K, b.D, b.Placement); got != want {
				t.Errorf("bounds key %q, want %q", got, want)
			}
			bi := BisectRequest{K: k, D: 2, Placement: spec, Method: "Best-Sweep"}
			if err := bi.Canonicalize(1 << 20); err != nil {
				t.Fatal(err)
			}
			if got, want := bi.CacheKey(), fmt.Sprintf("bisect|k=%d|d=%d|p=%s|m=%s", bi.K, bi.D, bi.Placement, bi.Method); got != want {
				t.Errorf("bisect key %q, want %q", got, want)
			}
		}
	}
}

// TestWrittenBodyIsMarshal pins the wire bytes of every cached answer
// type: the body written for a miss, a hit and an analytic answer is
// json.Marshal of the answer with its Cached stamp, plus a newline — the
// bytes writeJSON wrote when each caller encoded a copy of its own, before
// handlers encoded through the pooled encoder's scratch answer.
func TestWrittenBodyIsMarshal(t *testing.T) {
	s := New(Config{Workers: 1, EnableAnalytic: true})
	defer s.Close()
	h := s.Handler()
	ctx := context.Background()
	post := func(path, body string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", path, body, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	build := func(k, d int, spec string) *placement.Placement {
		ps, err := cliutil.ParsePlacement(spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ps.Build(torus.New(k, d))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	check := func(name string, got []byte, answer any) {
		want, err := json.Marshal(answer)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Errorf("%s: wrote\n%s\nwant\n%s", name, got, want)
		}
	}

	// The cache keeps a record of each answer and the handler rebuilds the
	// wire answer from it: one key per engine the records name, and a
	// second routing echo.
	for _, tc := range []struct {
		req    AnalyzeRequest
		engine string
	}{
		{AnalyzeRequest{K: 8, D: 3, Placement: "random:64:5", Routing: "udr"}, load.EngineRingFlow},
		{AnalyzeRequest{K: 16, D: 2, Placement: "multi:3:5", Routing: "far"}, load.EngineSymmetry},
		{AnalyzeRequest{K: 8, D: 3, Placement: "random:64:7", Routing: "odr-multi"}, load.EngineRingFlow},
	} {
		areq := tc.req
		analyze, err := computeAnalyze(ctx, areq, build(areq.K, areq.D, areq.Placement), s.cfg.loadOptions())
		if err != nil {
			t.Fatal(err)
		}
		if analyze.Engine != tc.engine {
			t.Fatalf("%+v answered by %q, want %q", areq, analyze.Engine, tc.engine)
		}
		body, err := json.Marshal(areq)
		if err != nil {
			t.Fatal(err)
		}
		check("analyze miss "+areq.Routing, post("/v1/analyze", string(body)), analyze)
		analyze.Cached = true
		check("analyze hit "+areq.Routing, post("/v1/analyze", string(body)), analyze)
	}
	lreq := AnalyzeRequest{K: 8, D: 2, Placement: "linear:3", Routing: "odr"}
	lspec, err := lreq.canonicalSpelling()
	if err != nil {
		t.Fatal(err)
	}
	lane, ok := s.tryAnalytic(ctx, &lreq, lspec)
	if !ok {
		t.Fatal("linear:3 ODR on T^2_8 missed the analytic lane")
	}
	check("analyze analytic", post("/v1/analyze", `{"k":8,"d":2,"placement":"linear:3","routing":"odr"}`), lane)

	breq := BoundsRequest{K: 8, D: 2, Placement: "random:16:3"}
	bounds := computeBounds(ctx, breq, build(8, 2, breq.Placement))
	body := `{"k":8,"d":2,"placement":"random:16:3"}`
	check("bounds miss", post("/v1/bounds", body), bounds)
	bounds.Cached = true
	check("bounds hit", post("/v1/bounds", body), bounds)

	sreq := BisectRequest{K: 8, D: 2, Placement: "random:16:3", Method: "best-sweep"}
	bisect, err := computeBisect(ctx, sreq, build(8, 2, sreq.Placement))
	if err != nil {
		t.Fatal(err)
	}
	body = `{"k":8,"d":2,"placement":"random:16:3","method":"best-sweep"}`
	check("bisect miss", post("/v1/bisect", body), bisect)
	bisect.Cached = true
	check("bisect hit", post("/v1/bisect", body), bisect)
}

// TestBodyCap checks readRequest's cap: a body of exactly MaxBodyBytes
// decodes, one byte more is a 400 naming the limit, and a body past the
// pooled buffer's first size grows it.
func TestBodyCap(t *testing.T) {
	const limit = 1024
	s := New(Config{Workers: 1, MaxBodyBytes: limit})
	defer s.Close()
	h := s.Handler()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bounds", strings.NewReader(body)))
		return rec
	}
	req := `{"k":8,"d":2,"placement":"linear"}`
	if rec := post(req + strings.Repeat(" ", limit-len(req))); rec.Code != http.StatusOK {
		t.Errorf("body of exactly the cap: status %d: %s", rec.Code, rec.Body)
	}
	rec := post(req + strings.Repeat(" ", limit-len(req)+1))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "http: request body too large") {
		t.Errorf("body one byte past the cap: status %d: %s", rec.Code, rec.Body)
	}
}
