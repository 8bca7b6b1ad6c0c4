package harness

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"torusnet/internal/service"
)

// BenchmarkPeerFill times one peer fill of a key its owner has cached: the
// requester's POST of the canonical request through the peer-fill client,
// the owner's cache hit, and the requester's decode of the answer, serially
// over loopback. Its time is what nsPerFill in internal/service prices a
// fill at, and its allocs/op (requester and owner together, both in this
// process) are gated by scripts/ci_bench_smoke.sh. Run it with
//
//	go test ./internal/cluster/harness -run '^$' -bench PeerFill -benchmem -cpu 1
func BenchmarkPeerFill(b *testing.B) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	nw, err := Start(Options{Nodes: 1, Service: testConfig()})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := nw.Stop(context.Background()); err != nil {
			b.Error(err)
		}
	}()
	if err := nw.WaitReady(ctx); err != nil {
		b.Fatal(err)
	}
	req := service.AnalyzeRequest{K: 8, D: 3, Placement: "random:64:1", Routing: "far"}
	if err := req.Canonicalize(service.DefaultMaxNodes); err != nil {
		b.Fatal(err)
	}
	if _, err := nw.Nodes[0].Client.Analyze(ctx, req); err != nil {
		b.Fatal(err)
	}
	payload, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	fc := service.NewPeerFillClient(nw.Nodes[0].URL)
	defer fc.CloseIdleConnections()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := fc.FillPeer(ctx, "/v1/analyze", payload)
		if err != nil {
			b.Fatal(err)
		}
		var resp service.AnalyzeResponse
		if err := json.Unmarshal(body, &resp); err != nil || !resp.Cached {
			b.Fatalf("fill answer %s: %v", body, err)
		}
	}
}
