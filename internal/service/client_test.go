package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"torusnet/internal/cluster"
)

// TestClientDrainsBodiesForConnectionReuse is the regression test for the
// body-drain bugfix: even when a response body exceeds the client's read
// limit (or belongs to an error status), the remainder must be drained so
// the keep-alive connection returns to the pool. Without the drain, each
// oversized response burns its connection and Reused stays false.
func TestClientDrainsBodiesForConnectionReuse(t *testing.T) {
	big := make([]byte, 8<<10)
	for i := range big {
		big[i] = 'x'
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/big":
			w.Write(big)
		case "/error":
			w.WriteHeader(http.StatusNotFound)
			w.Write(big)
		default:
			fmt.Fprint(w, `{"status":"ok","uptime_s":1,"experiments":31}`)
		}
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.maxBody = 64 // force truncation so the drain path matters

	var mu sync.Mutex
	var reused []bool
	trace := &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			mu.Lock()
			reused = append(reused, info.Reused)
			mu.Unlock()
		},
	}
	ctx := httptrace.WithClientTrace(context.Background(), trace)

	// Oversized 200 body (out == nil discards it), oversized 404 body,
	// then a normal call: all three on one connection.
	if err := c.do(ctx, http.MethodGet, "/big", nil, nil); err != nil {
		t.Fatalf("big: %v", err)
	}
	var apiErr *APIError
	if err := c.do(ctx, http.MethodGet, "/error", nil, nil); !errors.As(err, &apiErr) {
		t.Fatalf("error path: %v", err)
	}
	if err := c.do(ctx, http.MethodGet, "/big", nil, nil); err != nil {
		t.Fatalf("big again: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(reused) != 3 {
		t.Fatalf("saw %d connections, want 3", len(reused))
	}
	if reused[0] {
		t.Error("first request unexpectedly reused a connection")
	}
	for i, r := range reused[1:] {
		if !r {
			t.Errorf("request %d did not reuse the connection (body not drained)", i+2)
		}
	}
}

// TestFillPeerExchangesBytesAsIs pins the lean fill exchange: FillPeer
// sends the canonical payload byte for byte and returns the 200 body as
// read, whether the owner declared its Content-Length (read into one
// buffer of that size, capped at maxBody) or streamed it chunked.
func TestFillPeerExchangesBytesAsIs(t *testing.T) {
	const payload = `{"k": 8, "d": 3}`
	body := []byte(`{"e_max": 2.5,  "cached": true}`)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, err := io.ReadAll(r.Body)
		if err != nil || string(got) != payload || r.Header.Get(PeerHopHeader) == "" {
			t.Errorf("owner got payload %q (err %v, hop %q), want %q as sent", got, err, r.Header.Get(PeerHopHeader), payload)
		}
		if r.URL.Path == "/sized" {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		} else {
			w.(http.Flusher).Flush() // no Content-Length: chunked
		}
		w.Write(body)
	}))
	defer ts.Close()
	c := NewPeerFillClient(ts.URL)
	defer c.CloseIdleConnections()
	for _, path := range []string{"/sized", "/chunked"} {
		for _, max := range []int64{clientMaxBody, 10} {
			c.maxBody = max
			got, err := c.FillPeer(context.Background(), path, []byte(payload))
			want := body[:min(int64(len(body)), max)]
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s maxBody %d: FillPeer = %q, %v; want %q", path, max, got, err, want)
			}
		}
	}
}

// statusServer answers every request with status and the given
// Retry-After header (none when empty), counting the requests it sees.
func statusServer(t *testing.T, status int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"error":"injected %d"}`, status)
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

// TestPlainClientHasNoResilience pins the single-attempt contract: the
// client never retries, so raw 429/503/504 statuses surface to callers
// after exactly one request.
func TestPlainClientHasNoResilience(t *testing.T) {
	ts, hits := statusServer(t, http.StatusServiceUnavailable, "")
	c := NewClient(ts.URL)
	var apiErr *APIError
	if _, err := c.Health(context.Background()); !errors.As(err, &apiErr) {
		t.Fatalf("err = %v", err)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("plain client made %d attempts, want 1", n)
	}
}

// TestPeerFillFailsFastOn429 pins peer fill's one failure policy against
// an owner whose queue is full (429, Retry-After: 1). FillPeer surfaces
// the *APIError after one request without waiting out Retry-After; the
// cluster's per-peer health records one failure; and the requester answers
// by computing locally, still well inside the owner's back-off window.
func TestPeerFillFailsFastOn429(t *testing.T) {
	owner, hits := statusServer(t, http.StatusTooManyRequests, "1")
	ctx := context.Background()

	start := time.Now()
	_, err := NewPeerFillClient(owner.URL).FillPeer(ctx, "/v1/analyze", []byte(`{}`))
	elapsed := time.Since(start)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("FillPeer error = %v, want APIError 429", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want the owner's 1s", apiErr.RetryAfter)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("FillPeer sent %d requests to the overloaded owner, want 1", n)
	}
	if elapsed >= 250*time.Millisecond {
		t.Errorf("FillPeer took %v against a 429 owner, want < 250ms", elapsed)
	}

	// The same owner behind a cluster-mode server: the fill fails once and
	// the requester computes the answer itself.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	view, err := cluster.New(cluster.Config{
		Self:  self,
		Peers: []string{self, owner.URL},
		Dial:  func(u string) cluster.PeerTransport { return NewPeerFillClient(u) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	s := New(Config{Workers: 1, Cluster: view,
		OnCompute: func(string) { computes.Add(1) }})
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if err := s.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("serve: %v", err)
		}
	}()

	req := remoteHomedRequest(t, view, owner.URL)
	hits.Store(0)
	start = time.Now()
	resp, err := NewClient(self).Analyze(ctx, req)
	elapsed = time.Since(start)
	if err != nil {
		t.Fatalf("analyze with an overloaded owner: %v", err)
	}
	if !resp.Exact || resp.EMax <= 0 {
		t.Errorf("analyze = %+v, want an exact local answer", resp)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("requester sent %d fills to the overloaded owner, want 1", n)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("requester computed %d times, want 1 local fallback", n)
	}
	if n := clusterVar(view.Vars(), "fill_errors"); n != 1 {
		t.Errorf("cluster recorded %d fill errors, want 1", n)
	}
	found := false
	for _, p := range view.Status().Peers {
		if p.URL == owner.URL {
			found = true
			if p.Failures != 1 {
				t.Errorf("owner health records %d failures, want 1", p.Failures)
			}
		}
	}
	if !found {
		t.Errorf("owner %s missing from the cluster status", owner.URL)
	}
	if elapsed >= time.Second {
		t.Errorf("analyze took %v, want no wait on the owner's Retry-After", elapsed)
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Errorf("seconds form: %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Errorf("empty: %v", d)
	}
	if d := parseRetryAfter("-5"); d != 0 {
		t.Errorf("negative: %v", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Errorf("garbage: %v", d)
	}
	future := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d < 20*time.Second || d > 31*time.Second {
		t.Errorf("http-date form: %v", d)
	}
	past := time.Now().Add(-30 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Errorf("past http-date: %v", d)
	}
}
