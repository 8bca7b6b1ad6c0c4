// Package harness boots an in-process multi-node torusd cluster for
// tests. It follows the network-context + availability-checker pattern of
// multi-node test frameworks (kurtosis-style, described in DESIGN.md §12):
// a Network owns N full torusd instances on real loopback listeners, every
// directed peer link passes through a blockable transport edge (the
// network context — Partition and Heal flip edges without touching the
// nodes), and WaitReady is the availability checker that polls each
// node's /readyz before the test drives load.
//
// Nodes are real service.Servers with real cluster views, so harness
// tests exercise the same ring lookup, peer fill, loop guard,
// and health tracking code paths production runs — only the wire between
// peers is swapped for an interceptable in-process edge. Join and Leave
// drive the same runtime membership controller production exposes, so
// rebalance and epoch behavior is tested end to end.
package harness

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"torusnet/internal/cluster"
	"torusnet/internal/service"
)

// Options parameterizes Start. The zero value boots a 3-node cluster with
// default service configuration.
type Options struct {
	// Nodes is the cluster size; 0 means 3.
	Nodes int
	// Replicas is the ring's virtual-node count per peer; 0 means
	// cluster.DefaultReplicas.
	Replicas int
	// Service is the base per-node configuration. Cluster and OnCompute
	// are overwritten per node; everything else applies to every node.
	Service service.Config
	// OnCompute, when set, observes every pooled computation cluster-wide
	// as (node index, cache key) — the hook single-global-compute
	// assertions count.
	OnCompute func(node int, key string)
	// FailureThreshold and DownCooldown tune per-peer health tracking;
	// zero values mean 2 consecutive failures and 100ms, kept tight so
	// tests exercise down/recover cycles quickly.
	FailureThreshold int
	DownCooldown     time.Duration
}

// errPartitioned is what a blocked edge returns, standing in for the
// connection failure a real network partition would produce.
var errPartitioned = errors.New("harness: network partitioned")

// edge is one directed peer link: the real peer-fill client wrapped with a
// blockable gate. Partition flips the gate without the owning node's
// cluster view knowing anything changed — exactly like losing the wire.
type edge struct {
	inner   cluster.PeerTransport
	blocked atomic.Bool
}

func (e *edge) FillPeer(ctx context.Context, path string, payload []byte) ([]byte, error) {
	if e.blocked.Load() {
		return nil, errPartitioned
	}
	return e.inner.FillPeer(ctx, path, payload)
}

func (e *edge) Ready(ctx context.Context) error {
	if e.blocked.Load() {
		return errPartitioned
	}
	return e.inner.Ready(ctx)
}

// CloseIdleConnections closes the wrapped fill client's idle connections.
func (e *edge) CloseIdleConnections() {
	if ic, ok := e.inner.(interface{ CloseIdleConnections() }); ok {
		ic.CloseIdleConnections()
	}
}

// Node is one in-process torusd instance: its server, cluster view, a
// plain client pointed at it, and the outgoing transport edges the
// harness can block.
type Node struct {
	Index   int
	URL     string
	Server  *service.Server
	Cluster *cluster.Cluster
	Client  *service.Client

	ln net.Listener
	// edgeMu guards edges: the Dial closure appends at construction and
	// again on runtime membership joins, racing setBlocked readers.
	edgeMu   sync.Mutex
	edges    map[string]*edge // outgoing, keyed by target URL
	killed   atomic.Bool
	done     chan struct{} // closed when the serve goroutine exits
	serveErr atomic.Value  // error from Serve, nil/ErrServerClosed excluded
}

// Killed reports whether the node was stopped by Kill.
func (n *Node) Killed() bool { return n.killed.Load() }

func (n *Node) edge(target string) *edge {
	n.edgeMu.Lock()
	defer n.edgeMu.Unlock()
	return n.edges[target]
}

// Network is a running in-process cluster.
type Network struct {
	Nodes []*Node

	opts Options
	wg   sync.WaitGroup
}

// Start boots opts.Nodes torusd instances on loopback listeners, each
// with a cluster view over the full membership, and begins serving. Call
// Stop (usually via defer) to shut the cluster down.
func Start(opts Options) (*Network, error) {
	count := opts.Nodes
	if count <= 0 {
		count = 3
	}
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = 2
	}
	if opts.DownCooldown <= 0 {
		opts.DownCooldown = 100 * time.Millisecond
	}
	// Bind every listener first so the full membership's URLs exist
	// before any cluster view is built.
	listeners := make([]net.Listener, 0, count)
	urls := make([]string, 0, count)
	closeAll := func() {
		for _, ln := range listeners {
			if cerr := ln.Close(); cerr != nil {
				// Best effort: the construction error below wins.
				_ = cerr
			}
		}
	}
	for i := 0; i < count; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("harness: listener %d: %w", i, err)
		}
		listeners = append(listeners, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}

	nw := &Network{opts: opts}
	for i := 0; i < count; i++ {
		node, err := nw.newNode(i, urls[i], listeners[i], urls)
		if err != nil {
			closeAll()
			return nil, err
		}
		nw.Nodes = append(nw.Nodes, node)
	}
	for _, node := range nw.Nodes {
		nw.serve(node)
	}
	return nw, nil
}

// newNode builds one torusd instance whose cluster view spans peers.
func (nw *Network) newNode(index int, url string, ln net.Listener, peers []string) (*Node, error) {
	node := &Node{
		Index: index,
		URL:   url,
		ln:    ln,
		edges: make(map[string]*edge),
		done:  make(chan struct{}),
	}
	cl, err := cluster.New(cluster.Config{
		Self:             url,
		Peers:            peers,
		Replicas:         nw.opts.Replicas,
		FailureThreshold: nw.opts.FailureThreshold,
		DownCooldown:     nw.opts.DownCooldown,
		Dial: func(u string) cluster.PeerTransport {
			e := &edge{inner: service.NewPeerFillClient(u)}
			node.edgeMu.Lock()
			node.edges[u] = e
			node.edgeMu.Unlock()
			return e
		},
	})
	if err != nil {
		return nil, fmt.Errorf("harness: cluster view %d: %w", index, err)
	}
	cfg := nw.opts.Service
	cfg.Cluster = cl
	if nw.opts.OnCompute != nil {
		idx, hook := index, nw.opts.OnCompute
		cfg.OnCompute = func(key string) { hook(idx, key) }
	}
	node.Cluster = cl
	node.Server = service.New(cfg)
	node.Client = service.NewClient(url)
	return node, nil
}

// serve starts node's listener goroutine.
func (nw *Network) serve(node *Node) {
	nw.wg.Add(1)
	//lint:ignore syncmisuse joined in Stop: nw.wg.Wait runs after every node's Shutdown.
	go func() {
		defer nw.wg.Done()
		defer close(node.done)
		if err := node.Server.Serve(node.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			node.serveErr.Store(err)
		}
	}()
}

// WaitReady is the availability checker: it polls every live node's
// /readyz until all answer ready or ctx expires.
func (nw *Network) WaitReady(ctx context.Context) error {
	for _, n := range nw.Nodes {
		if n.Killed() {
			continue
		}
		if err := n.WaitReady(ctx); err != nil {
			return err
		}
	}
	return nil
}

// WaitReady polls this node's /readyz until it answers ready or ctx
// expires.
func (n *Node) WaitReady(ctx context.Context) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if err := n.Client.Ready(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("harness: node %d never became ready: %w", n.Index, ctx.Err())
		case <-tick.C:
		}
	}
}

// Owner resolves the home node index for a canonical cache key, asking
// the first live node's ring (every live view agrees by construction).
// The returned index may name a killed node — that is exactly what
// kill tests want to know.
func (nw *Network) Owner(key string) (int, error) {
	for _, n := range nw.Nodes {
		if n.Killed() {
			continue
		}
		owner, err := n.Cluster.Owner(key)
		if err != nil {
			return -1, err
		}
		for _, m := range nw.Nodes {
			if m.URL == owner {
				return m.Index, nil
			}
		}
		return -1, fmt.Errorf("harness: owner %q is not a member", owner)
	}
	return -1, errors.New("harness: no live nodes")
}

// Kill stops node i — it drains, its listener closes, and until the
// survivors evict it (Leave) their fills for keys homed there fail and
// fall back to local compute. Idempotent.
func (nw *Network) Kill(ctx context.Context, i int) error {
	n := nw.Nodes[i]
	if n.killed.Swap(true) {
		return nil
	}
	nw.closeIdleConnections()
	return n.Server.Shutdown(ctx)
}

// closeIdleConnections closes every idle connection the harness's clients
// and the nodes' peer-fill clients hold. net/http's Server.Shutdown waits
// up to 5 s on a connection that was dialed and never sent a request, so
// a node's drain must not find one from any client in the network.
func (nw *Network) closeIdleConnections() {
	for _, n := range nw.Nodes {
		n.Client.CloseIdleConnections()
		n.edgeMu.Lock()
		for _, e := range n.edges {
			e.CloseIdleConnections()
		}
		n.edgeMu.Unlock()
	}
}

// KillAndWait stops node i and blocks until its serve goroutine has
// fully exited — after it returns, nothing of node i is still running.
func (nw *Network) KillAndWait(ctx context.Context, i int) error {
	if err := nw.Kill(ctx, i); err != nil {
		return err
	}
	select {
	case <-nw.Nodes[i].done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("harness: node %d did not stop: %w", i, ctx.Err())
	}
}

// Join grows the cluster by one node at runtime: it boots a fresh torusd
// instance whose view already spans the full new membership, then drives
// every live node's membership controller to admit it — the same
// epoch-swap path the production admin endpoint uses — and waits for the
// newcomer to serve. Returns the new node (also appended to Nodes).
func (nw *Network) Join(ctx context.Context) (*Node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("harness: join listener: %w", err)
	}
	url := "http://" + ln.Addr().String()
	peers := make([]string, 0, len(nw.Nodes)+1)
	for _, n := range nw.Nodes {
		if !n.Killed() {
			peers = append(peers, n.URL)
		}
	}
	peers = append(peers, url)
	node, err := nw.newNode(len(nw.Nodes), url, ln, peers)
	if err != nil {
		if cerr := ln.Close(); cerr != nil {
			_ = cerr // the construction error wins
		}
		return nil, err
	}
	nw.Nodes = append(nw.Nodes, node)
	nw.serve(node)
	for _, n := range nw.Nodes {
		if n.Killed() || n == node {
			continue
		}
		if _, err := n.Cluster.Membership().Join(url); err != nil {
			return node, fmt.Errorf("harness: node %d admitting %s: %w", n.Index, url, err)
		}
	}
	return node, node.WaitReady(ctx)
}

// Leave shrinks the cluster: every survivor's membership controller
// evicts node i (advancing its epoch and rebalancing its ring), then the
// node is stopped and its serve goroutine joined.
func (nw *Network) Leave(ctx context.Context, i int) error {
	url := nw.Nodes[i].URL
	for _, n := range nw.Nodes {
		if n.Killed() || n.Index == i {
			continue
		}
		if _, err := n.Cluster.Membership().Leave(url); err != nil {
			return fmt.Errorf("harness: node %d evicting %s: %w", n.Index, url, err)
		}
	}
	return nw.KillAndWait(ctx, i)
}

// Partition severs both directions of the i↔j link: fills and readiness
// probes between the two nodes fail while every other link stays up —
// the network-context primitive for symmetric failure tests.
func (nw *Network) Partition(i, j int) {
	nw.setBlocked(i, j, true)
	nw.setBlocked(j, i, true)
}

// Heal restores both directions of the i↔j link.
func (nw *Network) Heal(i, j int) {
	nw.setBlocked(i, j, false)
	nw.setBlocked(j, i, false)
}

func (nw *Network) setBlocked(i, j int, blocked bool) {
	if e := nw.Nodes[i].edge(nw.Nodes[j].URL); e != nil {
		e.blocked.Store(blocked)
	}
}

// Stop shuts down every live node, joins the serve goroutines, and
// returns the first abnormal serve error, if any.
func (nw *Network) Stop(ctx context.Context) error {
	var firstErr error
	for i := range nw.Nodes {
		if err := nw.Kill(ctx, i); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	nw.wg.Wait()
	for _, n := range nw.Nodes {
		if err, ok := n.serveErr.Load().(error); ok && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
