package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond every millisecond until it holds, failing the test
// after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// analyzeKey is the cache key of req.
func analyzeKey(t *testing.T, req AnalyzeRequest) string {
	t.Helper()
	if err := req.Canonicalize(DefaultMaxNodes); err != nil {
		t.Fatal(err)
	}
	return req.CacheKey()
}

// TestQueuedJobPastDeadlineNeverComputes pins the worker's queued-job
// check: a miss still queued behind a blocked worker when its caller hits
// the request deadline is answered 504 and its job never reaches the
// compute. The third request queues behind it, so once it has computed,
// the worker has taken and dropped the expired job.
func TestQueuedJobPastDeadlineNeverComputes(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	var mu sync.Mutex
	var computed []string
	s := New(Config{Workers: 1, RequestTimeout: 250 * time.Millisecond})
	s.onCompute = func(key string) {
		mu.Lock()
		computed = append(computed, key)
		first := len(computed) == 1
		mu.Unlock()
		if first {
			started <- struct{}{}
			<-block
		}
	}
	defer s.Close()
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	defer unblock()

	reqAt := func(placement string) AnalyzeRequest {
		return AnalyzeRequest{K: 6, D: 2, Placement: placement, Routing: "odr"}
	}
	serve := func(req AnalyzeRequest) int {
		body := `{"k":6,"d":2,"placement":"` + req.Placement + `","routing":"odr"}`
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body)))
		return rec.Code
	}
	first := make(chan int, 1)
	go func() { first <- serve(reqAt("linear:0")) }()
	<-started // the worker is blocked on the first job

	if code := serve(reqAt("linear:1")); code != http.StatusGatewayTimeout {
		t.Errorf("queued request past its deadline: status %d, want 504", code)
	}
	if code := <-first; code != http.StatusGatewayTimeout {
		t.Errorf("blocked request past its deadline: status %d, want 504", code)
	}
	unblock()
	if code := serve(reqAt("linear:2")); code != http.StatusOK {
		t.Fatalf("request after the worker freed up: status %d, want 200", code)
	}

	expired := analyzeKey(t, reqAt("linear:1"))
	mu.Lock()
	defer mu.Unlock()
	for _, key := range computed {
		if key == expired {
			t.Errorf("job of a caller past its deadline was computed (computes: %q)", computed)
		}
	}
	if len(computed) != 2 {
		t.Errorf("computes %q, want the blocked job and the last request's", computed)
	}
}

// TestComputeContextCarriesDeadline pins the context a miss's compute
// receives: it reports the request deadline, and once the caller has
// been answered 504 its Done is closed and its Err is DeadlineExceeded.
func TestComputeContextCarriesDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	s := New(Config{Workers: 1, RequestTimeout: timeout})
	release := make(chan struct{})
	defer func() {
		close(release)
		s.Close()
	}()
	got := make(chan context.Context, 1)
	compute := funcWork(func(ctx context.Context) (any, error) {
		got <- ctx
		<-release
		return AnalyzeResponse{EMax: 1}, nil
	})
	miss := func() (*peerFill, error) { return nil, nil }

	start := time.Now()
	_, _, err := execute(s, context.Background(), "analyze|deadline", miss, compute)
	end := time.Now()
	rec := httptest.NewRecorder()
	s.failCompute(rec, err)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("blocked compute: err %v answered %d, want 504", err, rec.Code)
	}

	ctx := <-got
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("compute context reports no deadline")
	}
	if dl.Before(start.Add(timeout)) || dl.After(end) {
		t.Errorf("compute deadline %v not in [start+%v, answer] = [%v, %v]", dl, timeout, start.Add(timeout), end)
	}
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("compute context Err = %v after the 504, want DeadlineExceeded", err)
	}
	select {
	case <-ctx.Done():
	default:
		t.Error("compute context Done not closed after the 504")
	}
}

// TestFollowerOutlivesCanceledLeader pins what a coalesced follower gets
// when its flight's leader is abandoned by its own client: the leader's
// cancellation is not the follower's, so the follower re-enters the
// flight, computes, and is answered 200; and a request whose client left
// is not counted as a timeout.
func TestFollowerOutlivesCanceledLeader(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var computes atomic.Int32
	s := New(Config{Workers: 1, RequestTimeout: time.Minute})
	s.onCompute = func(string) {
		if computes.Add(1) == 1 {
			started <- struct{}{}
			<-release
		}
	}
	ts := httptest.NewServer(s.Handler())
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer func() {
		unblock()
		ts.Close()
		s.Close()
	}()
	c := NewClient(ts.URL)
	req := AnalyzeRequest{K: 6, D: 2, Placement: "linear:1", Routing: "odr"}

	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Analyze(lctx, req)
		leaderErr <- err
	}()
	<-started // the leader's job is running

	type result struct {
		resp *AnalyzeResponse
		err  error
	}
	follower := make(chan result, 1)
	go func() {
		resp, err := c.Analyze(context.Background(), req)
		follower <- result{resp, err}
	}()
	waitFor(t, "the follower's miss", func() bool { return s.metrics.get(mCacheMisses) >= 2 })
	time.Sleep(20 * time.Millisecond) // let the follower reach the flight

	lcancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader client: err %v, want context.Canceled", err)
	}
	// Once the leader's handler has returned, the follower has seen the
	// leader's outcome; only then is the worker released.
	waitFor(t, "the leader's handler to return", func() bool { return s.metrics.get(mInFlight) <= 1 })
	unblock()

	r := <-follower
	if r.err != nil {
		t.Fatalf("follower with a live client: %v, want 200", r.err)
	}
	if r.resp.EMax <= 0 || r.resp.Cached {
		t.Errorf("follower answer %+v, want a computed E_max", r.resp)
	}
	waitFor(t, "every handler to return", func() bool { return s.metrics.get(mInFlight) == 0 })
	if got := s.metrics.get(mTimeouts); got != 0 {
		t.Errorf("timeouts = %d, want 0: no request exceeded its deadline", got)
	}
}

// TestServeMissAllocsWithCancelContext counts what a miss pays for its
// request context where BenchmarkServeAnalyzeMiss cannot see it. The
// benchmark's httptest request carries context.Background, which has no
// Done channel and no children, while net/http hands a handler a
// cancellable child of its connection's context, so whatever the miss path
// registers on it (a derived context's entry in its children map, the
// channel Done makes) is paid per request and never counted there. Served
// that way, a miss may allocate only the channel more than the same miss
// served with context.Background: submit's wait makes it, once.
func TestServeMissAllocsWithCancelContext(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	s := New(Config{Workers: 1, CacheSize: 1, EnableAnalytic: true})
	defer s.Close()
	h := s.Handler()
	conn, closeConn := context.WithCancel(context.Background())
	defer closeConn()
	body := make([]byte, 0, 96)
	seed := int64(1)
	serve := func(ctx context.Context) {
		body = strconv.AppendInt(append(body[:0], `{"k":8,"d":3,"placement":"random:64:`...), seed, 10)
		body = append(body, `","routing":"udr"}`...)
		seed++
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":false`)) {
			t.Fatalf("analyze on a fresh key: status %d: %s", rec.Code, rec.Body)
		}
	}
	background := testing.AllocsPerRun(100, func() { serve(context.Background()) })
	cancellable := testing.AllocsPerRun(100, func() {
		ctx, cancel := context.WithCancel(conn)
		serve(ctx)
		cancel()
	})
	// Making the context is net/http's cost, not the miss path's.
	making := testing.AllocsPerRun(100, func() {
		_, cancel := context.WithCancel(conn)
		cancel()
	})
	if extra := cancellable - making - background; extra > 1 {
		t.Errorf("a miss served with a cancellable request context allocates %.0f times more than with context.Background (%.0f, %.0f of them making the context, against %.0f), want at most 1: the Done channel",
			extra, cancellable, making, background)
	}
}

// TestPooledTimerDeliversNoStaleTick releases submit's deadline timers
// around the instant they fire, unreceived, and checks that the timer the
// pool hands out next never delivers a tick before its own deadline.
func TestPooledTimerDeliversNoStaleTick(t *testing.T) {
	for i := 0; i < 500; i++ {
		tm := acquireTimer(time.Duration(i%4) * time.Microsecond)
		if i%3 > 0 {
			time.Sleep(time.Duration(i%3) * time.Microsecond)
		}
		releaseTimer(tm)
		next := acquireTimer(time.Hour)
		select {
		case <-next.C:
			t.Fatalf("round %d: a reused timer delivered a stale tick", i)
		default:
		}
		releaseTimer(next)
	}
}
