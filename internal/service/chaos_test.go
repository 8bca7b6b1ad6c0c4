package service

// Chaos suite: fires every registered failpoint against a live server under
// -race, asserts the documented failure semantics, and checks that the
// server converges back to exact answers with no goroutine leaks once the
// faults are disarmed. Run via `make chaos`.

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"torusnet/internal/cluster"
	"torusnet/internal/failpoint"
	"torusnet/internal/obs"
)

// checkGoroutineLeaks snapshots the goroutine count and returns a function
// that fails the test if, after a settling period, the count has not come
// back down to the snapshot.
func checkGoroutineLeaks(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		var now int
		for {
			runtime.Gosched()
			now = runtime.NumGoroutine()
			if now <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
	}
}

// analyzeStatus posts an analyze request and reports the HTTP status it
// came back with (0 for transport errors).
func analyzeStatus(t *testing.T, c *Client, req AnalyzeRequest) (int, *AnalyzeResponse, error) {
	t.Helper()
	resp, err := c.Analyze(context.Background(), req)
	if err == nil {
		return http.StatusOK, resp, nil
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status, nil, err
	}
	return 0, nil, err
}

// isAPIStatus reports whether err is an *APIError with the given status.
func isAPIStatus(err error, status int) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == status
}

// chaosScenario drives one failpoint site and asserts its documented
// failure semantics.
type chaosScenario struct {
	spec  string
	drive func(t *testing.T, s *Server, c *Client)
}

// newChaosClusterPair boots two cluster-mode servers on loopback listeners
// so the cluster.* failpoints have a real peer-fill path to break. The
// returned stop shuts both servers down and joins the serve goroutines, so
// the leak checker sees a quiet runtime again. (The full multi-node suite
// lives in internal/cluster/harness; it cannot be used here because harness
// imports this package.)
func newChaosClusterPair(t *testing.T) (clients [2]*Client, views [2]*cluster.Cluster, stop func()) {
	t.Helper()
	var lns [2]net.Listener
	var urls []string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("pair listener %d: %v", i, err)
		}
		lns[i] = ln
		urls = append(urls, "http://"+ln.Addr().String())
	}
	var servers [2]*Server
	var wg sync.WaitGroup
	for i := range lns {
		cl, err := cluster.New(cluster.Config{
			Self:  urls[i],
			Peers: urls,
			Dial:  func(u string) cluster.PeerTransport { return NewPeerFillClient(u) },
		})
		if err != nil {
			t.Fatalf("pair cluster view %d: %v", i, err)
		}
		views[i] = cl
		servers[i] = New(Config{Workers: 2, Cluster: cl})
		clients[i] = NewClient(urls[i])
		wg.Add(1)
		go func(s *Server, ln net.Listener) {
			defer wg.Done()
			if err := s.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				t.Errorf("pair serve: %v", err)
			}
		}(servers[i], lns[i])
	}
	return clients, views, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, s := range servers {
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("pair shutdown: %v", err)
			}
		}
		wg.Wait()
	}
}

// remoteHomedRequest finds an analyze request other than exclude whose
// canonical cache key is homed on owner according to view — the
// precondition for the peer dial and fill decode faults to be reachable
// from the other node. Its compute is far dearer than a fill (FAR on T³₈
// over random:64, priced at milliseconds), so the other node does fill it
// from owner whatever a fill is priced at.
func remoteHomedRequest(t *testing.T, view *cluster.Cluster, owner string, exclude ...AnalyzeRequest) AnalyzeRequest {
	t.Helper()
	for seed := 0; seed < 200; seed++ {
		req := AnalyzeRequest{K: 8, D: 3, Placement: fmt.Sprintf("random:64:%d", seed), Routing: "far"}
		canon := req
		if err := canon.Canonicalize(DefaultMaxNodes); err != nil {
			t.Fatalf("canonicalize %+v: %v", req, err)
		}
		o, err := view.Owner(canon.CacheKey())
		if err != nil {
			t.Fatalf("owner lookup: %v", err)
		}
		if o == owner && !slices.Contains(exclude, req) {
			return req
		}
	}
	t.Fatalf("no dear analyze key homed on %s", owner)
	return AnalyzeRequest{}
}

// clusterVar reads one int counter out of a cluster's expvar map.
func clusterVar(m *expvar.Map, name string) int64 {
	if v, ok := m.Get(name).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// TestChaosAllSites arms every registered failpoint in turn, asserts the
// site's failure contract, then verifies the server converges back to the
// exact baseline answer after disarming. The scenario map is checked
// against failpoint.Sites() so a newly registered site without a chaos
// scenario fails this test.
func TestChaosAllSites(t *testing.T) {
	leaks := checkGoroutineLeaks(t)
	defer leaks()

	// The watchdog is off so wedge recovery (covered separately) cannot
	// mask a scenario's assertions.
	s, c, stop := newTestServer(t, Config{
		Workers: 2, QueueDepth: 4,
		WedgeTimeout: -1 * time.Second,
	})
	defer stop()
	defer failpoint.DisableAll()
	ctx := context.Background()

	baselineReq := AnalyzeRequest{K: 6, D: 2, Placement: "linear", Routing: "ODR"}
	baseline, err := c.Analyze(ctx, baselineReq)
	if err != nil {
		t.Fatalf("baseline analyze: %v", err)
	}

	// Each scenario uses its own K so the result cache never hides the
	// compute path from an armed failpoint.
	scenarios := map[string]chaosScenario{
		"service.cache.get": {spec: "error", drive: func(t *testing.T, s *Server, c *Client) {
			if st, _, _ := analyzeStatus(t, c, AnalyzeRequest{K: 4, D: 2, Placement: "linear", Routing: "ODR"}); st != http.StatusInternalServerError {
				t.Errorf("cache.get error: status = %d, want 500", st)
			}
		}},
		"service.cache.put": {spec: "error", drive: func(t *testing.T, s *Server, c *Client) {
			req := AnalyzeRequest{K: 5, D: 2, Placement: "linear", Routing: "ODR"}
			for i := 0; i < 2; i++ {
				resp, err := c.Analyze(context.Background(), req)
				if err != nil {
					t.Fatalf("cache.put fault must not fail the request: %v", err)
				}
				if resp.Cached {
					t.Errorf("request %d cached despite cache.put fault", i)
				}
			}
		}},
		"service.flight.leader": {spec: "error", drive: func(t *testing.T, s *Server, c *Client) {
			if st, _, _ := analyzeStatus(t, c, AnalyzeRequest{K: 7, D: 2, Placement: "linear", Routing: "ODR"}); st != http.StatusInternalServerError {
				t.Errorf("flight.leader error: status = %d, want 500", st)
			}
		}},
		"service.pool.dispatch": {spec: "1*panic", drive: func(t *testing.T, s *Server, c *Client) {
			before := s.pool.restarts.Load()
			st, _, err := analyzeStatus(t, c, AnalyzeRequest{K: 8, D: 2, Placement: "linear", Routing: "ODR"})
			if st != http.StatusInternalServerError || !strings.Contains(err.Error(), "panicked") {
				t.Errorf("pool.dispatch panic: status %d err %v, want 500 panicked", st, err)
			}
			if got := s.pool.restarts.Load(); got != before+1 {
				t.Errorf("pool restarts = %d, want %d", got, before+1)
			}
			// The crashed worker's replacement must serve the retry.
			if _, err := c.Analyze(context.Background(), AnalyzeRequest{K: 8, D: 2, Placement: "linear", Routing: "ODR"}); err != nil {
				t.Errorf("analyze after worker crash: %v", err)
			}
		}},
		"service.response.encode": {spec: "error", drive: func(t *testing.T, s *Server, c *Client) {
			st, _, err := analyzeStatus(t, c, AnalyzeRequest{K: 9, D: 2, Placement: "linear", Routing: "ODR"})
			if st != http.StatusInternalServerError || !strings.Contains(err.Error(), "encoding failed") {
				t.Errorf("response.encode error: status %d err %v, want 500 encoding failed", st, err)
			}
			// The fallback body is JSON, labelled as every other body is.
			resp, err := http.Post(c.base+"/v1/analyze", "application/json",
				strings.NewReader(`{"k":9,"d":2,"placement":"linear","routing":"ODR"}`))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			if cerr := resp.Body.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			var e ErrorResponse
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("response.encode error: Content-Type %q, want application/json", ct)
			}
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "encoding failed") {
				t.Errorf("response.encode error: body %q is not the JSON error (%v)", body, err)
			}
		}},
		"load.compute.dispatch": {spec: "error", drive: func(t *testing.T, s *Server, c *Client) {
			st, _, err := analyzeStatus(t, c, AnalyzeRequest{K: 11, D: 2, Placement: "linear", Routing: "ODR"})
			if st != http.StatusInternalServerError || !strings.Contains(err.Error(), "panicked") {
				t.Errorf("compute.dispatch error: status %d err %v, want 500 panicked", st, err)
			}
		}},
		"load.compute.merge": {spec: "error", drive: func(t *testing.T, s *Server, c *Client) {
			// FAR on a random placement has no translation symmetry, so
			// the cost model runs the generic pair loop and its merge.
			st, _, err := analyzeStatus(t, c, AnalyzeRequest{K: 12, D: 2, Placement: "random:4", Routing: "far"})
			if st != http.StatusInternalServerError || !strings.Contains(err.Error(), "panicked") {
				t.Errorf("compute.merge error: status %d err %v, want 500 panicked", st, err)
			}
		}},
		"load.analytic.dispatch": {spec: "error", drive: func(t *testing.T, _ *Server, _ *Client) {
			// The analytic fast lane is soft: an armed fault makes the lane
			// decline, and the request falls through to the computed
			// pipeline — still 200, still exact, just not closed-form. The
			// main chaos server runs with the lane off, so this scenario
			// boots its own lane-enabled server.
			_, ac, astop := newTestServer(t, Config{Workers: 2, EnableAnalytic: true})
			defer astop()
			resp, err := ac.Analyze(context.Background(), AnalyzeRequest{K: 13, D: 2, Placement: "linear", Routing: "ODR"})
			if err != nil {
				t.Fatalf("analyze with analytic fault: %v", err)
			}
			if resp.Engine == "analytic" {
				t.Error("engine = analytic despite an armed lane fault, want computed fallback")
			}
			if !resp.Exact || resp.TotalLoad == 0 {
				t.Errorf("fallback answer exact=%v total=%v, want an exact computed result", resp.Exact, resp.TotalLoad)
			}
		}},
		"cluster.ring.lookup": {spec: "error", drive: func(t *testing.T, _ *Server, c *Client) {
			// With the ring unreadable, a cluster node cannot place any key —
			// every request must still answer exactly, computed locally. The
			// key is dearer than a fill, so its miss asks the ring for an
			// owner; the single-node server never reads the ring.
			clients, views, stop := newChaosClusterPair(t)
			defer stop()
			req := AnalyzeRequest{K: 8, D: 3, Placement: "random:64:1", Routing: "far"}
			want, err := c.Analyze(context.Background(), req)
			if err != nil {
				t.Fatalf("single-node analyze: %v", err)
			}
			resp, err := clients[0].Analyze(context.Background(), req)
			if err != nil {
				t.Fatalf("analyze with ring fault: %v", err)
			}
			if resp.EMax != want.EMax || !resp.Exact {
				t.Errorf("ring-fault answer: EMax=%v exact=%v, want exact %v", resp.EMax, resp.Exact, want.EMax)
			}
			if n := clusterVar(views[0].Vars(), "ring_lookup_errors"); n == 0 {
				t.Error("ring_lookup_errors = 0, want the fault counted")
			}
		}},
		"cluster.peer.dial": {spec: "error", drive: func(t *testing.T, _ *Server, _ *Client) {
			// An unreachable home peer costs the fill, not the request: the
			// serving node computes locally and records the failure against
			// the peer's health.
			clients, views, stop := newChaosClusterPair(t)
			defer stop()
			req := remoteHomedRequest(t, views[0], views[1].Self())
			resp, err := clients[0].Analyze(context.Background(), req)
			if err != nil {
				t.Fatalf("analyze with dial fault: %v", err)
			}
			if resp.Cached {
				t.Error("dial-fault answer cached, want a fresh local compute")
			}
			// The dial fault counts against the peer's health: its
			// persistent per-peer error counter records the failure.
			var fillErrors int64
			for _, ps := range views[0].Status().Peers {
				if ps.URL == views[1].Self() {
					fillErrors = ps.FillErrors
				}
			}
			if fillErrors == 0 {
				t.Error("home peer shows 0 fill errors after a dial fault, want >= 1 (dial faults count toward health)")
			}
		}},
		"cluster.fill.decode": {spec: "error", drive: func(t *testing.T, _ *Server, _ *Client) {
			// A corrupt fill body is discarded and the node computes locally —
			// but the wire exchange succeeded, so the peer's health must stay
			// clean (only dial/transport failures count toward down-marking).
			clients, views, stop := newChaosClusterPair(t)
			defer stop()
			req := remoteHomedRequest(t, views[0], views[1].Self())
			resp, err := clients[0].Analyze(context.Background(), req)
			if err != nil {
				t.Fatalf("analyze with decode fault: %v", err)
			}
			if resp.Cached {
				t.Error("decode-fault answer cached, want a fresh local compute")
			}
			if n := clusterVar(views[0].Vars(), "fill_errors"); n == 0 {
				t.Error("fill_errors = 0, want the discarded fill counted")
			}
			for _, ps := range views[0].Status().Peers {
				if ps.URL == views[1].Self() && ps.Failures != 0 {
					t.Errorf("home peer failures = %d after decode fault, want 0 (health is transport-only)", ps.Failures)
				}
			}
		}},
		"cluster.membership.swap": {spec: "error", drive: func(t *testing.T, _ *Server, _ *Client) {
			// A failed swap must reject the change wholesale: the epoch does
			// not advance and the previous ring generation keeps serving.
			view, err := cluster.New(cluster.Config{
				Self: "http://chaos-node",
				Dial: func(string) cluster.PeerTransport { return nil },
			})
			if err != nil {
				t.Fatalf("standalone cluster view: %v", err)
			}
			if _, jerr := view.Membership().Join("http://other"); jerr == nil {
				t.Error("Join succeeded despite an armed swap fault, want rejection")
			}
			if view.Epoch() != 1 {
				t.Errorf("epoch = %d after rejected swap, want 1", view.Epoch())
			}
			if got := len(view.Peers()); got != 1 {
				t.Errorf("membership size = %d after rejected swap, want 1", got)
			}
			if n := clusterVar(view.Vars(), "membership_errors"); n == 0 {
				t.Error("membership_errors = 0, want the rejected swap counted")
			}
		}},
		"service.jobs.submit": {spec: "1*error", drive: func(t *testing.T, s *Server, c *Client) {
			// error fails the submission outright; partial sheds it as 429
			// capacity backpressure. Both leave the manager untouched.
			before := s.metrics.get(mJobsSubmitted)
			req := OptimizeRequest{K: 4, D: 2, Routing: "ODR", Strategy: "leesphere"}
			if _, err := c.Optimize(context.Background(), req); !isAPIStatus(err, http.StatusInternalServerError) {
				t.Errorf("jobs.submit error: err = %v, want 500", err)
			}
			if err := failpoint.Enable("service.jobs.submit", "1*partial"); err != nil {
				t.Fatal(err)
			}
			_, err := c.Optimize(context.Background(), req)
			if !isAPIStatus(err, http.StatusTooManyRequests) {
				t.Errorf("jobs.submit partial: err = %v, want 429", err)
			}
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.RetryAfter <= 0 {
				t.Error("429 shed without a Retry-After hint")
			}
			if n := s.metrics.get(mJobsSubmitted); n != before {
				t.Errorf("jobs_submitted rose %d -> %d across two rejected submissions, want no change", before, n)
			}
		}},
		"service.jobs.run": {spec: "1*error", drive: func(t *testing.T, s *Server, c *Client) {
			// The submission already answered 202; the fault only shows to
			// pollers, as the terminal failed state.
			acc, err := c.Optimize(context.Background(), OptimizeRequest{K: 4, D: 2, Routing: "ODR", Strategy: "leesphere"})
			if err != nil {
				t.Fatalf("submit with run fault armed: %v", err)
			}
			wctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			snap, err := c.WaitJob(wctx, acc.ID, 5*time.Millisecond)
			if err != nil {
				t.Fatalf("waiting for faulted job: %v", err)
			}
			if snap.State != JobStateFailed || !strings.Contains(snap.Error, "injected") {
				t.Errorf("faulted job state=%q error=%q, want failed with the injected fault", snap.State, snap.Error)
			}
			// The fault was 1-shot: a fresh job must succeed.
			acc2, err := c.Optimize(context.Background(), OptimizeRequest{K: 4, D: 2, Routing: "ODR", Strategy: "leesphere"})
			if err != nil {
				t.Fatalf("resubmit: %v", err)
			}
			if snap, err := c.WaitJob(wctx, acc2.ID, 5*time.Millisecond); err != nil || snap.State != JobStateDone {
				t.Errorf("job after disarm: snap=%+v err=%v, want done", snap, err)
			}
		}},
		"service.jobs.gc": {spec: "error", drive: func(t *testing.T, _ *Server, _ *Client) {
			// A broken sweep skips expiry but breaks nothing else: the
			// finished record outlives its TTL and stays pollable. The main
			// chaos server's janitor ticks too slowly to reach the site, so
			// this scenario boots its own tiny-TTL server.
			_, jc, jstop := newTestServer(t, Config{Workers: 2, JobTTL: 20 * time.Millisecond})
			defer jstop()
			acc, err := jc.Optimize(context.Background(), OptimizeRequest{K: 4, D: 2, Routing: "ODR", Strategy: "leesphere"})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			wctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := jc.WaitJob(wctx, acc.ID, 5*time.Millisecond); err != nil {
				t.Fatalf("wait: %v", err)
			}
			// Several TTLs and janitor rounds pass; with every sweep faulted
			// the record must survive.
			time.Sleep(120 * time.Millisecond)
			if _, err := jc.Job(context.Background(), acc.ID); err != nil {
				t.Errorf("finished job expired despite a faulted janitor: %v", err)
			}
		}},
		"sweep.experiment": {spec: "1*error", drive: func(t *testing.T, s *Server, c *Client) {
			// The error kind panics inside the pool and surfaces as 500 —
			// and, crucially, caches nothing.
			if _, err := c.RunExperiment(context.Background(), "E1", ExperimentRequest{}); err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Errorf("error experiment: err = %v, want panicked 500", err)
			}
			if err := failpoint.Enable("sweep.experiment", "1*partial"); err != nil {
				t.Fatal(err)
			}
			resp, err := c.RunExperiment(context.Background(), "E1", ExperimentRequest{})
			if err != nil {
				t.Fatalf("partial experiment: %v", err)
			}
			if !strings.Contains(string(resp.Table), "partial result") {
				t.Errorf("partial experiment table lacks truncation note: %s", resp.Table)
			}
		}},
	}

	sites := failpoint.Sites()
	if len(sites) != len(scenarios) {
		t.Fatalf("registered sites %v do not match the %d chaos scenarios — add a scenario for every new failpoint", sites, len(scenarios))
	}
	for _, site := range sites {
		sc, ok := scenarios[site]
		if !ok {
			t.Fatalf("no chaos scenario for registered failpoint %q", site)
		}
		t.Run(site, func(t *testing.T) {
			if err := failpoint.Enable(site, sc.spec); err != nil {
				t.Fatalf("arming %s=%s: %v", site, sc.spec, err)
			}
			defer func() {
				if err := failpoint.Disable(site); err != nil {
					t.Fatalf("disarming %s: %v", site, err)
				}
				// Convergence: with the fault gone, the baseline request
				// must produce the exact baseline numbers again.
				resp, err := c.Analyze(context.Background(), baselineReq)
				if err != nil {
					t.Fatalf("convergence analyze after %s: %v", site, err)
				}
				if resp.EMax != baseline.EMax {
					t.Errorf("after %s: EMax=%v, want %v exact", site, resp.EMax, baseline.EMax)
				}
			}()
			sc.drive(t, s, c)
			if failpoint.Hits(site) == 0 {
				t.Errorf("failpoint %s never fired", site)
			}
		})
	}
}

// TestChaosPoolPanicStorm crashes several pool workers mid-request while
// other callers are concurrently cancelling, and asserts the pool replaces
// every crashed worker, the surviving requests complete, and nothing leaks.
func TestChaosPoolPanicStorm(t *testing.T) {
	leaks := checkGoroutineLeaks(t)
	defer leaks()

	s, c, stop := newTestServer(t, Config{
		Workers: 4, QueueDepth: 16, WedgeTimeout: -1 * time.Second,
	})
	defer stop()
	defer failpoint.DisableAll()

	const crashes = 6
	if err := failpoint.Enable("service.pool.dispatch", "6*panic"); err != nil {
		t.Fatal(err)
	}

	const callers = 24
	var wg sync.WaitGroup
	var panics, oks, cancelled int64
	var mu sync.Mutex
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%3 == 0 {
				// A third of the callers give up almost immediately,
				// racing cancellation against the worker crashes.
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%5+1)*time.Millisecond)
				defer cancel()
			}
			// Distinct K per caller defeats the cache and the coalescer.
			req := AnalyzeRequest{K: 4 + i, D: 2, Placement: "linear", Routing: "ODR"}
			_, err := c.Analyze(ctx, req)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				oks++
			case strings.Contains(err.Error(), "panicked"):
				panics++
			default:
				cancelled++
			}
		}(i)
	}
	wg.Wait()

	if got := s.pool.restarts.Load(); got != crashes {
		t.Errorf("pool restarts = %d, want %d (one replacement per crashed worker)", got, crashes)
	}
	if oks == 0 {
		t.Errorf("no caller succeeded during the storm (oks=%d panics=%d cancelled=%d)", oks, panics, cancelled)
	}
	t.Logf("storm: %d ok, %d panic 500s, %d cancelled/timeout", oks, panics, cancelled)

	// The spec was counted, so it is already spent; the pool must be back
	// at full strength for fresh work.
	for i := 0; i < 4; i++ {
		if _, err := c.Analyze(context.Background(), AnalyzeRequest{K: 40 + i, D: 2, Placement: "linear", Routing: "ODR"}); err != nil {
			t.Fatalf("post-storm analyze %d: %v", i, err)
		}
	}
}

// TestChaosFlightLeaderPanicReleasesKey is the regression test for a
// wedged key: a panicking singleflight leader used to skip its cleanup,
// so its key stayed claimed and every later request for it blocked
// forever. Now the panic answers 500 and the very next request for the
// key computes normally.
func TestChaosFlightLeaderPanicReleasesKey(t *testing.T) {
	s, c, stop := newTestServer(t, Config{Workers: 2})
	released := false
	defer func() {
		// A wedged key leaves its handler blocked, and closing the test
		// server waits for every handler; only a released key can close.
		if released {
			stop()
		}
	}()
	if err := failpoint.Enable("service.flight.leader", "1*panic"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := failpoint.Disable("service.flight.leader"); err != nil {
			t.Fatal(err)
		}
	}()

	req := AnalyzeRequest{K: 6, D: 2, Placement: "linear", Routing: "ODR"}
	st, _, err := analyzeStatus(t, c, req)
	if st != http.StatusInternalServerError || err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panicking leader: status %d err %v, want 500 panicked", st, err)
	}
	if got := s.metrics.get(mPanics); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := c.Analyze(ctx, req)
	if err != nil {
		t.Fatalf("request after the leader panic: %v, want 200 (the key must be released)", err)
	}
	released = true
	if !resp.Exact {
		t.Error("answer after the panic not exact, want an exact compute")
	}
}

// TestChaosWatchdogRecoversWedgedWorker wedges a worker with a sleep fault
// and asserts the watchdog restores pool capacity while the wedged job is
// still stuck, and that the wedged worker retires cleanly afterwards.
func TestChaosWatchdogRecoversWedgedWorker(t *testing.T) {
	leaks := checkGoroutineLeaks(t)
	defer leaks()

	s, c, stop := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, WedgeTimeout: 40 * time.Millisecond,
	})
	defer stop()
	defer failpoint.DisableAll()

	if err := failpoint.Enable("service.pool.dispatch", "1*sleep(400ms)"); err != nil {
		t.Fatal(err)
	}

	// The wedged caller occupies the pool's only original worker.
	wedgedDone := make(chan error, 1)
	go func() {
		_, err := c.Analyze(context.Background(), AnalyzeRequest{K: 6, D: 2, Placement: "linear", Routing: "ODR"})
		wedgedDone <- err
	}()

	// While the worker sleeps, the watchdog must spawn a replacement that
	// serves this second request well before the 400ms wedge clears.
	deadline := time.Now().Add(300 * time.Millisecond)
	var recovered bool
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, err := c.Analyze(ctx, AnalyzeRequest{K: 5, D: 2, Placement: "linear", Routing: "ODR"})
		cancel()
		if err == nil {
			recovered = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Error("no request served by a replacement worker while the original was wedged")
	}
	if got := s.pool.replacements.Load(); got < 1 {
		t.Errorf("watchdog replacements = %d, want >= 1", got)
	}

	if err := <-wedgedDone; err != nil {
		t.Errorf("wedged request finally failed: %v", err)
	}
}

// TestChaosTracesWellFormed fires faults at every pipeline depth — cache
// read, flight leadership, pool dispatch, engine dispatch and merge,
// response encoding — and asserts every trace the
// tracer exported stays structurally well-formed: aborted requests must
// never leave half-recorded span trees behind.
func TestChaosTracesWellFormed(t *testing.T) {
	leaks := checkGoroutineLeaks(t)
	defer leaks()

	tracer := obs.NewTracer(64)
	s, c, stop := newTestServer(t, Config{
		Workers: 2, QueueDepth: 4,
		WedgeTimeout: -1 * time.Second,
		Tracer:       tracer,
	})
	defer stop()
	defer failpoint.DisableAll()

	faults := []struct{ site, spec string }{
		{"service.cache.get", "error"},
		{"service.flight.leader", "error"},
		{"service.pool.dispatch", "1*panic"},
		{"load.compute.dispatch", "error"},
		{"load.compute.merge", "error"},
		{"service.response.encode", "error"},
	}
	k := 4
	for _, fp := range faults {
		if err := failpoint.Enable(fp.site, fp.spec); err != nil {
			t.Fatalf("arming %s: %v", fp.site, err)
		}
		// Distinct K per fault keeps the cache from short-circuiting the
		// faulted path; FAR on a random placement runs the generic pair
		// loop, so the merge fault fires inside it. Outcomes (usually
		// 500s) are the sites' own business — here only the exported
		// trace shape matters.
		_, _, _ = analyzeStatus(t, c, AnalyzeRequest{K: k, D: 2, Placement: "random:4", Routing: "far"})
		k++
		if err := failpoint.Disable(fp.site); err != nil {
			t.Fatalf("disarming %s: %v", fp.site, err)
		}
	}
	_ = s

	traces := tracer.Snapshot(0)
	if len(traces) < len(faults) {
		t.Fatalf("exported %d traces, want >= %d (one per faulted request)", len(traces), len(faults))
	}
	for _, tr := range traces {
		if err := tr.Wellformed(); err != nil {
			t.Errorf("chaos trace malformed: %v", err)
		}
	}
}
