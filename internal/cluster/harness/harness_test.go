package harness

import (
	"context"
	"expvar"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"torusnet/internal/cliutil"
	"torusnet/internal/core"
	"torusnet/internal/failpoint"
	"torusnet/internal/load"
	"torusnet/internal/service"
	"torusnet/internal/torus"
)

// testConfig is the per-node service config every harness test uses: a
// small pool to keep -race runs light.
func testConfig() service.Config {
	return service.Config{Workers: 4}
}

// computeCounter records every pooled computation cluster-wide: for each
// key, the node index of each compute in order.
type computeCounter struct {
	mu    sync.Mutex
	nodes map[string][]int
}

func newComputeCounter() *computeCounter {
	return &computeCounter{nodes: make(map[string][]int)}
}

func (c *computeCounter) hook(node int, key string) {
	c.mu.Lock()
	c.nodes[key] = append(c.nodes[key], node)
	c.mu.Unlock()
}

func (c *computeCounter) get(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes[key])
}

// where returns the nodes that computed key, in compute order.
func (c *computeCounter) where(key string) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.nodes[key]...)
}

// analyzeFixture returns a small analyze request and its canonical cache
// key (k nodes per dimension on T^d_k, linear placement, ODR routing).
func analyzeFixture(t *testing.T, k, d int, routing string) (service.AnalyzeRequest, string) {
	t.Helper()
	req := service.AnalyzeRequest{K: k, D: d, Placement: "linear", Routing: routing}
	canon := req
	if err := canon.Canonicalize(service.DefaultMaxNodes); err != nil {
		t.Fatalf("canonicalize k=%d d=%d: %v", k, d, err)
	}
	return req, canon.CacheKey()
}

// intVar reads one integer counter from a /debug/vars snapshot.
func intVar(t *testing.T, vars map[string]any, name string) int64 {
	t.Helper()
	v, ok := vars[name].(float64)
	if !ok {
		t.Fatalf("counter %q missing from /debug/vars snapshot", name)
	}
	return int64(v)
}

// startNetwork boots a cluster and registers cleanup that fails the test
// on abnormal serve errors.
func startNetwork(t *testing.T, ctx context.Context, opts Options) *Network {
	t.Helper()
	nw, err := Start(opts)
	if err != nil {
		t.Fatalf("start network: %v", err)
	}
	t.Cleanup(func() {
		// The test's own ctx is already cancelled by its deferred cancel
		// when cleanups run; shutdown needs a live deadline of its own.
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		if err := nw.Stop(sctx); err != nil {
			t.Errorf("stop network: %v", err)
		}
	})
	if err := nw.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	return nw
}

// singleNodeTruth computes the reference answer on an isolated 1-node
// cluster (every key local), giving the "identical to single-node
// results" baseline the acceptance criteria demand.
func singleNodeTruth(t *testing.T, ctx context.Context, req service.AnalyzeRequest) *service.AnalyzeResponse {
	t.Helper()
	nw := startNetwork(t, ctx, Options{Nodes: 1, Service: testConfig()})
	resp, err := nw.Nodes[0].Client.Analyze(ctx, req)
	if err != nil {
		t.Fatalf("single-node truth: %v", err)
	}
	return resp
}

// sameAnswer compares the analysis fields that must agree across nodes
// (Cached varies per caller by design).
func sameAnswer(a, b *service.AnalyzeResponse) bool {
	ac, bc := *a, *b
	ac.Cached, bc.Cached = false, false
	// Engine may differ between the symmetry fast path and a peer's choice
	// only if configs diverge; harness nodes share one config, so keep it
	// in the comparison.
	return ac == bc
}

// TestClusterSingleGlobalCompute is the headline acceptance test: three
// nodes, concurrent identical requests to all of them, exactly one
// computation cluster-wide — the peer-fill stage threads the singleflight
// through the ring so the home shard's leader is the only one that ever
// runs the analysis.
func TestClusterSingleGlobalCompute(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	counter := newComputeCounter()
	nw := startNetwork(t, ctx, Options{Nodes: 3, Service: testConfig(), OnCompute: counter.hook})

	req, key := analyzeFixture(t, 6, 2, "odr")
	const perNode = 4
	results := make([]*service.AnalyzeResponse, 3*perNode)
	errs := make([]error, 3*perNode)
	var wg sync.WaitGroup
	for ni, n := range nw.Nodes {
		for j := 0; j < perNode; j++ {
			idx := ni*perNode + j
			cl := n.Client
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[idx], errs[idx] = cl.Analyze(ctx, req)
			}()
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
	for i, r := range results {
		if !r.Exact {
			t.Fatalf("request %d answered inexact", i)
		}
		if !sameAnswer(r, results[0]) {
			t.Fatalf("request %d disagrees: %+v vs %+v", i, r, results[0])
		}
	}
	if got := counter.get(key); got != 1 {
		t.Fatalf("cluster-wide computations for %q = %d, want exactly 1", key, got)
	}

	// The compute happened on the home shard; every other node was served
	// by exactly one peer fill (its own requests coalesce behind it), and
	// the home saw hop requests.
	owner, err := nw.Owner(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nw.Nodes {
		vars, verr := n.Client.Vars(ctx)
		if verr != nil {
			t.Fatalf("vars node %d: %v", n.Index, verr)
		}
		if n.Index == owner {
			if hops := intVar(t, vars, "peer_hops"); hops < 1 {
				t.Errorf("home node %d served %d hops, want >= 1", n.Index, hops)
			}
			continue
		}
		if fills := intVar(t, vars, "peer_fills"); fills != 1 {
			t.Errorf("node %d peer_fills = %d, want 1", n.Index, fills)
		}
		if ferr := intVar(t, vars, "peer_fill_errors"); ferr != 0 {
			t.Errorf("node %d peer_fill_errors = %d, want 0", n.Index, ferr)
		}
	}
}

// findKeyOwnedBy scans small analyze fixtures for one homed on the given
// node, excluding keys already in exclude.
func findKeyOwnedBy(t *testing.T, nw *Network, owner int, exclude map[string]bool) (service.AnalyzeRequest, string) {
	t.Helper()
	for _, d := range []int{2, 3} {
		for _, routing := range []string{"odr", "udr"} {
			for k := 4; k <= 14; k++ {
				req, key := analyzeFixture(t, k, d, routing)
				if exclude[key] {
					continue
				}
				idx, err := nw.Owner(key)
				if err != nil {
					t.Fatal(err)
				}
				if idx == owner {
					return req, key
				}
			}
		}
	}
	t.Fatalf("no small fixture is homed on node %d", owner)
	return service.AnalyzeRequest{}, ""
}

// TestClusterKillHomeMidLoad kills the home shard of a hot key while
// survivors serve it under load: availability must stay 100% and every
// answer must equal the single-node result — no staleness, no divergence.
func TestClusterKillHomeMidLoad(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, key := analyzeFixture(t, 6, 2, "odr")
	truth := singleNodeTruth(t, ctx, req)
	nw := startNetwork(t, ctx, Options{Nodes: 3, Service: testConfig()})

	owner, err := nw.Owner(key)
	if err != nil {
		t.Fatal(err)
	}
	// Warm every node: the home computes once, the others fill from it.
	for _, n := range nw.Nodes {
		resp, aerr := n.Client.Analyze(ctx, req)
		if aerr != nil {
			t.Fatalf("warm node %d: %v", n.Index, aerr)
		}
		if !sameAnswer(resp, truth) {
			t.Fatalf("node %d warm answer diverges from single-node truth: %+v vs %+v", n.Index, resp, truth)
		}
	}

	// Hammer the survivors while the home shard dies mid-run.
	var wg sync.WaitGroup
	var failures atomic.Int64
	for _, n := range nw.Nodes {
		if n.Index == owner {
			continue
		}
		cl := n.Client
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, herr := cl.Analyze(ctx, req)
				if herr != nil || !sameAnswer(resp, truth) {
					failures.Add(1)
					return
				}
			}
		}()
	}
	if err := nw.Kill(ctx, owner); err != nil {
		t.Fatalf("kill node %d: %v", owner, err)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d survivor requests failed or diverged during the kill", n)
	}

	// A fresh key homed on the dead node must still be answerable: the
	// survivor's fill toward the dead owner fails and it computes locally.
	survivor := (owner + 1) % len(nw.Nodes)
	freshReq, freshKey := findKeyOwnedBy(t, nw, owner, map[string]bool{key: true})
	freshTruth := singleNodeTruth(t, ctx, freshReq)
	resp, err := nw.Nodes[survivor].Client.Analyze(ctx, freshReq)
	if err != nil {
		t.Fatalf("fresh key %q on survivor %d: %v", freshKey, survivor, err)
	}
	if !sameAnswer(resp, freshTruth) {
		t.Fatalf("survivor answer for %q diverges from single-node truth: %+v vs %+v", freshKey, resp, freshTruth)
	}
	if lost := clusterCounter(nw.Nodes[survivor], "fill_errors") + clusterCounter(nw.Nodes[survivor], "fill_skips"); lost < 1 {
		t.Errorf("survivor fill_errors+fill_skips = %d, want >= 1 (the fill toward the dead owner must fail)", lost)
	}
}

// clusterCounter reads one integer counter from a node's cluster expvar
// map (0 when absent).
func clusterCounter(n *Node, name string) int64 {
	if v, ok := n.Cluster.Vars().Get(name).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// TestClusterPartitionFallsBackLocal partitions a requester from a key's
// home shard: the request still succeeds via local compute, and healing
// the link restores peer fills.
func TestClusterPartitionFallsBackLocal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	counter := newComputeCounter()
	nw := startNetwork(t, ctx, Options{Nodes: 3, Service: testConfig(), OnCompute: counter.hook})

	req, key := analyzeFixture(t, 6, 2, "odr")
	owner, err := nw.Owner(key)
	if err != nil {
		t.Fatal(err)
	}
	// The requester must not own key, or it would compute locally without
	// trying a fill at all.
	requester := (owner + 1) % len(nw.Nodes)
	nw.Partition(requester, owner)
	resp, err := nw.Nodes[requester].Client.Analyze(ctx, req)
	if err != nil {
		t.Fatalf("partitioned request: %v", err)
	}
	if !resp.Exact {
		t.Fatal("partitioned request answered inexact")
	}
	if got := counter.get(key); got != 1 {
		t.Fatalf("computes for %q under partition = %d, want 1 (local fallback)", key, got)
	}
	vars, err := nw.Nodes[requester].Client.Vars(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fills := intVar(t, vars, "peer_fills"); fills != 0 {
		t.Fatalf("peer_fills across a partition = %d, want 0", fills)
	}
	if ferr := intVar(t, vars, "peer_fill_errors"); ferr < 1 {
		t.Fatalf("peer_fill_errors = %d, want >= 1", ferr)
	}

	// Heal and verify fills resume. The owner may have been marked down;
	// poll with fresh keys until the cooldown + readiness probe re-admits
	// it and a fill lands.
	nw.Heal(requester, owner)
	exclude := map[string]bool{key: true}
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		freshReq, freshKey := findKeyOwnedBy(t, nw, owner, exclude)
		exclude[freshKey] = true
		if _, err := nw.Nodes[requester].Client.Analyze(ctx, freshReq); err != nil {
			t.Fatalf("healed request: %v", err)
		}
		if got := counter.get(freshKey); got > 1 {
			t.Fatalf("computes for %q after heal = %d, want at most 1", freshKey, got)
		}
		vars, err = nw.Nodes[requester].Client.Vars(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if intVar(t, vars, "peer_fills") >= 1 {
			return // a fill landed: the link healed end to end
		}
		select {
		case <-deadline.C:
			t.Fatal("peer fills never resumed after healing the partition")
		case <-tick.C:
		}
	}
}

// TestClusterChaosFailpointsUnderChurn arms the cluster failpoint sites
// against a live 3-node network: every fill path fault must degrade to
// local compute (availability stays 100%), and disarming must let fills
// and peer health recover.
func TestClusterChaosFailpointsUnderChurn(t *testing.T) {
	defer failpoint.DisableAll()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	counter := newComputeCounter()
	nw := startNetwork(t, ctx, Options{Nodes: 3, Service: testConfig(), OnCompute: counter.hook})

	sites := []string{"cluster.ring.lookup", "cluster.peer.dial", "cluster.fill.decode"}
	k := 4
	for _, site := range sites {
		if err := failpoint.Enable(site, "error"); err != nil {
			t.Fatalf("arm %s: %v", site, err)
		}
		// With the site armed, every node must still answer every request
		// (distinct keys per site so nothing is pre-cached).
		req, key := analyzeFixture(t, k, 2, "odr")
		k++
		for _, n := range nw.Nodes {
			resp, err := n.Client.Analyze(ctx, req)
			if err != nil {
				t.Fatalf("site %s armed: node %d failed: %v", site, n.Index, err)
			}
			if !resp.Exact {
				t.Fatalf("site %s armed: node %d answered inexact", site, n.Index)
			}
		}
		if failpoint.Hits(site) == 0 {
			t.Fatalf("site %s never fired", site)
		}
		if err := failpoint.Disable(site); err != nil {
			t.Fatalf("disarm %s: %v", site, err)
		}
		if got := counter.get(key); got < 1 {
			t.Fatalf("site %s armed: no compute recorded for %q", site, key)
		}
	}

	// Recovery: repeated dial faults marked peers down; once disarmed, the
	// cooldown + readiness probe must re-admit them. Poll with fresh keys
	// until a fill lands (each key is only filled on its first miss).
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	requester := nw.Nodes[0]
	for {
		vars, err := requester.Client.Vars(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fillsBefore := intVar(t, vars, "peer_fills")
		req, _ := analyzeFixture(t, k, 2, "udr")
		k++
		if _, err := requester.Client.Analyze(ctx, req); err != nil {
			t.Fatalf("recovery request: %v", err)
		}
		vars, err = requester.Client.Vars(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if intVar(t, vars, "peer_fills") > fillsBefore {
			return // a fill landed: the cluster healed
		}
		select {
		case <-deadline.C:
			t.Fatal("peer fills never resumed after disarming the chaos sites")
		case <-tick.C:
		}
	}
}

// TestClusterJoinUnderLoad grows the cluster by one node while load runs
// against every original node: availability must stay 100%, every answer
// exact, and every surviving view's epoch must advance by exactly one.
func TestClusterJoinUnderLoad(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	counter := newComputeCounter()
	nw := startNetwork(t, ctx, Options{Nodes: 3, Service: testConfig(), OnCompute: counter.hook})

	for _, n := range nw.Nodes {
		if got := n.Cluster.Epoch(); got != 1 {
			t.Fatalf("node %d initial epoch = %d, want 1", n.Index, got)
		}
	}

	reqs := make([]service.AnalyzeRequest, 0, 3)
	for k := 5; k <= 7; k++ {
		req, _ := analyzeFixture(t, k, 2, "odr")
		reqs = append(reqs, req)
	}
	var failures atomic.Int64
	var wg sync.WaitGroup
	stopLoad := make(chan struct{})
	for _, n := range nw.Nodes[:3] {
		cl := n.Client
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				resp, err := cl.Analyze(ctx, reqs[i%len(reqs)])
				if err != nil || !resp.Exact {
					failures.Add(1)
					return
				}
			}
		}()
	}

	joined, err := nw.Join(ctx)
	close(stopLoad)
	wg.Wait()
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed or inexact during the join", n)
	}
	for _, n := range nw.Nodes[:3] {
		if got := n.Cluster.Epoch(); got != 2 {
			t.Errorf("node %d epoch after join = %d, want 2", n.Index, got)
		}
		if peers := len(n.Cluster.Status().Peers); peers != 4 {
			t.Errorf("node %d sees %d peers after join, want 4", n.Index, peers)
		}
	}
	// The newcomer serves: a request against it answers exact, computed
	// at most once cluster-wide.
	req, key := analyzeFixture(t, 9, 2, "odr")
	resp, err := joined.Client.Analyze(ctx, req)
	if err != nil {
		t.Fatalf("request on joined node: %v", err)
	}
	if !resp.Exact {
		t.Fatal("joined node answered inexact")
	}
	if got := counter.get(key); got != 1 {
		t.Errorf("computes for %q via joined node = %d, want 1", key, got)
	}

	// And Leave shrinks back: survivors advance to epoch 3 and drop to 3
	// peers, with the departed node fully stopped.
	if err := nw.Leave(ctx, joined.Index); err != nil {
		t.Fatalf("leave: %v", err)
	}
	for _, n := range nw.Nodes[:3] {
		if got := n.Cluster.Epoch(); got != 3 {
			t.Errorf("node %d epoch after leave = %d, want 3", n.Index, got)
		}
		if peers := len(n.Cluster.Status().Peers); peers != 3 {
			t.Errorf("node %d sees %d peers after leave, want 3", n.Index, peers)
		}
	}
}

// coreTruth computes req's answer the way a single node does — the paper
// pipeline itself, core.AnalyzeCtx with the service's load options — and
// fails the test unless resp carries exactly those bytes.
func coreTruth(t *testing.T, req service.AnalyzeRequest, resp *service.AnalyzeResponse) {
	t.Helper()
	canon := req
	if err := canon.Canonicalize(service.DefaultMaxNodes); err != nil {
		t.Fatal(err)
	}
	spec, err := cliutil.ParsePlacement(canon.Placement)
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build(torus.New(canon.K, canon.D))
	if err != nil {
		t.Fatal(err)
	}
	alg, err := cliutil.ParseRouting(canon.Routing)
	if err != nil {
		t.Fatal(err)
	}
	rep := core.AnalyzeCtx(context.Background(), p, alg, load.Options{Workers: 1})
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(resp.EMax, rep.Load.Max) || !same(resp.TotalLoad, rep.Load.Total) ||
		!same(resp.LoadPerProcessor, rep.LoadPerProcessor) || !same(resp.DensityC, rep.DensityC) ||
		resp.MaxEdge != p.Torus().EdgeString(rep.Load.MaxEdge) || resp.Engine != rep.Load.Engine ||
		resp.Exact != rep.Load.Exact {
		t.Fatalf("%s answer %+v differs from core.AnalyzeCtx (E_max %v, total %v, edge %s, engine %s)",
			canon.CacheKey(), resp, rep.Load.Max, rep.Load.Total, p.Torus().EdgeString(rep.Load.MaxEdge), rep.Load.Engine)
	}
}

// TestClusterOneOwnerKillLeave is the one-owner acceptance test. Keys
// warmed on every node are still answered exactly by the survivors once
// their owner is killed. Keys warmed only at that owner are lost with it;
// once the survivors evict it (a ring swap), each lost key is computed
// exactly once cluster-wide: its new owner computes it and the other
// survivor peer-fills it from there.
func TestClusterOneOwnerKillLeave(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	counter := newComputeCounter()
	nw := startNetwork(t, ctx, Options{Nodes: 3, Service: testConfig(), OnCompute: counter.hook})

	first, firstKey := analyzeFixture(t, 6, 2, "odr")
	victim, err := nw.Owner(firstKey)
	if err != nil {
		t.Fatal(err)
	}
	taken := map[string]bool{firstKey: true}
	pick := func() (service.AnalyzeRequest, string) {
		req, key := findKeyOwnedBy(t, nw, victim, taken)
		taken[key] = true
		return req, key
	}
	shared := []service.AnalyzeRequest{first}
	sharedKeys := []string{firstKey}
	req, key := pick()
	shared, sharedKeys = append(shared, req), append(sharedKeys, key)
	var lost []service.AnalyzeRequest
	var lostKeys []string
	for i := 0; i < 2; i++ {
		req, key := pick()
		lost, lostKeys = append(lost, req), append(lostKeys, key)
	}

	for _, n := range nw.Nodes {
		for _, req := range shared {
			if _, err := n.Client.Analyze(ctx, req); err != nil {
				t.Fatalf("warm node %d: %v", n.Index, err)
			}
		}
	}
	for _, req := range lost {
		if _, err := nw.Nodes[victim].Client.Analyze(ctx, req); err != nil {
			t.Fatalf("warm owner: %v", err)
		}
	}
	for _, key := range append(append([]string(nil), sharedKeys...), lostKeys...) {
		if got := counter.where(key); len(got) != 1 || got[0] != victim {
			t.Fatalf("warm-up computes for %q = %v, want once on the owner %d", key, got, victim)
		}
	}

	if err := nw.KillAndWait(ctx, victim); err != nil {
		t.Fatalf("kill owner %d: %v", victim, err)
	}
	var survivors []*Node
	for _, n := range nw.Nodes {
		if n.Index != victim {
			survivors = append(survivors, n)
		}
	}
	answer := func(n *Node, req service.AnalyzeRequest) {
		t.Helper()
		resp, err := n.Client.Analyze(ctx, req)
		if err != nil {
			t.Fatalf("node %d: %v", n.Index, err)
		}
		coreTruth(t, req, resp)
	}
	// Warm keys live in every survivor's LRU: exact, and never recomputed.
	for _, n := range survivors {
		for _, req := range shared {
			answer(n, req)
		}
	}
	for _, key := range sharedKeys {
		if got := counter.get(key); got != 1 {
			t.Fatalf("computes for warm key %q after the kill = %d, want still 1", key, got)
		}
	}

	if err := nw.Leave(ctx, victim); err != nil {
		t.Fatalf("leave %d: %v", victim, err)
	}
	fills := func(n *Node) int64 {
		t.Helper()
		vars, err := n.Client.Vars(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return intVar(t, vars, "peer_fills")
	}
	for i, req := range lost {
		owner, err := nw.Owner(lostKeys[i])
		if err != nil {
			t.Fatal(err)
		}
		if owner == victim {
			t.Fatalf("%q still owned by the evicted node %d", lostKeys[i], victim)
		}
		other := survivors[0]
		if other.Index == owner {
			other = survivors[1]
		}
		before := fills(other)
		answer(other, req)
		answer(nw.Nodes[owner], req)
		if got := counter.where(lostKeys[i]); len(got) != 2 || got[1] != owner {
			t.Fatalf("computes for lost key %q = %v, want the evicted owner's plus one on the new owner %d", lostKeys[i], got, owner)
		}
		if got := fills(other) - before; got != 1 {
			t.Fatalf("node %d peer fills for lost key %q = %d, want 1 (from the new owner)", other.Index, lostKeys[i], got)
		}
	}
	for _, n := range survivors {
		for _, req := range append(append([]service.AnalyzeRequest(nil), shared...), lost...) {
			answer(n, req)
		}
	}
}
