package service

// Tests for the cluster integration points that live in this package: the
// /healthz vs /readyz split, the peer-hop loop guard, and the zero-cost
// guarantee of the fill path when clustering is off. The multi-node
// behavior (global compute dedup, kill/partition recovery) is covered in
// internal/cluster/harness.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestReadyzSingleNode pins the split: /healthz is liveness, /readyz is
// readiness, and a non-cluster node is ready as soon as it serves.
func TestReadyzSingleNode(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	ctx := context.Background()

	if err := c.Ready(ctx); err != nil {
		t.Fatalf("single-node /readyz: %v", err)
	}
	rz, err := c.Readyz(ctx)
	if err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	if !rz.Ready || rz.Mode != "single" || rz.Self != "" {
		t.Errorf("single-node readyz = %+v, want ready in mode single with no self", rz)
	}
	if _, err := c.Health(ctx); err != nil {
		t.Errorf("healthz alongside readyz: %v", err)
	}
}

// TestReadyzClusterMode checks the cluster-mode body: ready once the ring
// is joined, reporting self and the membership size.
func TestReadyzClusterMode(t *testing.T) {
	clients, views, stop := newChaosClusterPair(t)
	defer stop()
	rz, err := clients[0].Readyz(context.Background())
	if err != nil {
		t.Fatalf("cluster readyz: %v", err)
	}
	if !rz.Ready || rz.Mode != "cluster" || rz.Self != views[0].Self() || rz.Peers != 2 {
		t.Errorf("cluster readyz = %+v, want ready in mode cluster, self %s, 2 peers", rz, views[0].Self())
	}
}

// TestPeerHopLoopGuard proves the one-hop invariant at the HTTP layer: a
// request carrying the PeerHopHeader never fills onward, even when its key
// is homed on another peer — the receiving node computes locally and counts
// the hop.
func TestPeerHopLoopGuard(t *testing.T) {
	clients, views, stop := newChaosClusterPair(t)
	defer stop()
	ctx := context.Background()

	// A peer-fill client marks every request as a hop; aim it at node 0
	// with a key homed on node 1.
	req := remoteHomedRequest(t, views[0], views[1].Self())
	hopC := NewPeerFillClient(clients[0].base)
	if _, err := hopC.Analyze(ctx, req); err != nil {
		t.Fatalf("hop-marked analyze: %v", err)
	}
	if fills := clusterVar(views[0].Vars(), "fills"); fills != 0 {
		t.Errorf("node 0 forwarded a hop-marked request (fills = %d), the loop guard must stop it", fills)
	}

	// The same key asked plainly does fill: the guard is per-request, not a
	// switch. Node 0 has the answer cached from the hop request, so use a
	// second remote-homed key.
	var fresh AnalyzeRequest
	for k := 4; k <= 40; k++ {
		cand := AnalyzeRequest{K: k, D: 2, Placement: "linear", Routing: "ODR"}
		canon := cand
		if err := canon.Canonicalize(DefaultMaxNodes); err != nil {
			continue
		}
		if o, _ := views[0].Owner(canon.CacheKey()); o == views[1].Self() && cand != req {
			fresh = cand
			break
		}
	}
	if fresh.K == 0 {
		t.Fatal("no second remote-homed key found")
	}
	if _, err := clients[0].Analyze(ctx, fresh); err != nil {
		t.Fatalf("plain analyze: %v", err)
	}
	if fills := clusterVar(views[0].Vars(), "fills"); fills != 1 {
		t.Errorf("plain remote-homed analyze yielded %d fills, want 1", fills)
	}
}

// TestClusterDisabledPathAllocFree gates the zero-cost contract: with no
// Cluster configured, planning the (absent) fill stage for a request must
// not allocate — single-node deployments pay nothing for the cluster
// layer's existence on the hot path.
func TestClusterDisabledPathAllocFree(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := AnalyzeRequest{K: 6, D: 2, Placement: "linear:0", Routing: "odr"}
	httpReq := httptest.NewRequest(http.MethodPost, "/v1/analyze", nil)
	planned := false
	if n := testing.AllocsPerRun(100, func() {
		if f := s.fillFor(httpReq, "/v1/analyze", &req, decodeAnalyzeFill); f != nil {
			planned = true
		}
	}); n != 0 {
		t.Errorf("disabled-cluster fillFor allocates %.0f times per run, want 0", n)
	}
	if planned {
		t.Error("fillFor planned a fill with no cluster configured")
	}
}

// TestDecodeAnalyzeFill pins the peer-fill decoder across a rolling
// upgrade: an older peer may still answer a fill with a Monte Carlo
// estimate ("degraded": true), which must be rejected so the filler
// computes the exact answer itself; an exact body decodes to the value
// local compute would cache.
func TestDecodeAnalyzeFill(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		wantErr    string
	}{
		{"exact", `{"k":6,"d":2,"placement":"linear","routing":"ODR","e_max":3.5,"engine":"symmetry","exact":true}`, ""},
		{"older-peer-estimate", `{"k":6,"d":2,"placement":"linear","routing":"ODR","e_max":3.4,"engine":"montecarlo","degraded":true,"error_bound":0.3}`, "degraded"},
		{"malformed", `{"k":6,`, "unexpected end"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := decodeAnalyzeFill([]byte(tc.body))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("decode = (%v, %v), want an error containing %q", v, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			r, ok := v.(AnalyzeResponse)
			if !ok || r.EMax != 3.5 || r.Engine != "symmetry" || !r.Exact || r.Degraded {
				t.Errorf("decoded %#v, want the exact symmetry answer", v)
			}
		})
	}
}

// TestExecuteCacheHitAllocFree gates the one cache-lookup site at the head
// of execute: on the single-node path a cache hit allocates nothing.
func TestExecuteCacheHitAllocFree(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	const key = "analyze|warm"
	miss := func() (*peerFill, error) { return nil, nil }
	compute := func(context.Context) (any, error) { return AnalyzeResponse{EMax: 1}, nil }
	if _, _, err := s.execute(ctx, key, miss, compute); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, cached, err := s.execute(ctx, key, miss, compute); err != nil || !cached {
			t.Fatalf("execute on a warm key = (cached %v, %v), want a cache hit", cached, err)
		}
	}); n != 0 {
		t.Errorf("cache-hit execute allocates %.0f times per run, want 0", n)
	}
}

// BenchmarkFillForDisabled is the bench face of the same contract; run with
// -benchmem to see the 0 B/op, 0 allocs/op gate the test enforces.
func BenchmarkFillForDisabled(b *testing.B) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := AnalyzeRequest{K: 6, D: 2, Placement: "linear:0", Routing: "odr"}
	httpReq := httptest.NewRequest(http.MethodPost, "/v1/analyze", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.fillFor(httpReq, "/v1/analyze", &req, decodeAnalyzeFill); f != nil {
			b.Fatal("unexpected fill plan")
		}
	}
}

// TestPeerFillClientReadyHonorsNotReady pins the peer-fill client's
// /readyz contract: a not-ready backend surfaces as *APIError 503 from
// Ready, which is what the cluster layer's re-admission probe keys on.
func TestPeerFillClientReadyHonorsNotReady(t *testing.T) {
	notReady := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer notReady.Close()
	c := NewPeerFillClient(notReady.URL)
	err := c.Ready(context.Background())
	if err == nil {
		t.Fatal("Ready against a 503 backend returned nil")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Errorf("Ready error = %v, want APIError 503", err)
	}
}
