// Package cluster shards the torusd analysis service across a set of
// peers. A consistent-hash ring over the canonical cache key gives every
// key one home, mirroring the paper's placement discipline: assign work so
// no link — here, no node — carries avoidable duplicate load, and the
// cluster computes each E_max answer dearer than a peer fill once
// globally. A fill is load too: the service computes an analysis priced
// below one fill on the node that received it, without asking the ring.
//
// The fill path is groupcache-shaped. Every key has exactly one owner,
// its primary on the ring. On a local cache miss for a key owned
// elsewhere, the serving node fetches the answer from that owner in one
// attempt and computes locally when the owner cannot answer. The per-peer
// health below is the only failure policy on the fill path; the transport
// never retries or waits out a Retry-After. Fill requests carry a
// one-hop loop guard: a node serving a fill never fills in turn, so
// requests traverse at most one peer edge regardless of membership skew.
// Every failure mode — ring fault, owner down, dial error, corrupt fill
// body — degrades to local compute, trading cluster-wide dedup for
// availability. Answers are deterministic functions of the key, so a lost
// owner costs at most one recompute per key, never a wrong answer.
//
// Membership is dynamic: a Membership controller applies runtime
// Join/Leave/Set operations as epoch-numbered ring swaps published
// atomically, so readers always see one consistent (epoch, ring) pair and
// never block on a swap. Per-peer health is unchanged from the static
// design: a peer that fails FailureThreshold consecutive exchanges is
// marked down for DownCooldown and re-admitted only after a successful
// readiness probe (GET /readyz) bounded by its own ProbeTimeout, so a
// live-but-still-joining process stays out of the fill path and a
// black-holed peer cannot wedge the health loop.
package cluster

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PeerTransport is the wire surface the cluster needs to one peer. The
// service package's Client implements it (see NewPeerFillClient); the test
// harness wraps it to inject partitions. Implementations must be safe for
// concurrent use.
type PeerTransport interface {
	// FillPeer POSTs payload (a canonical request body) to path on the
	// peer and returns the raw 200 response body. Any non-200 or
	// transport failure is an error.
	FillPeer(ctx context.Context, path string, payload []byte) ([]byte, error)
	// Ready probes the peer's GET /readyz, returning nil only when the
	// peer reports itself ready to serve.
	Ready(ctx context.Context) error
}

// Config parameterizes a Cluster.
type Config struct {
	// Self is this node's advertised base URL; it must appear in the ring
	// so every node agrees which keys are local. If absent from Peers it
	// is added.
	Self string
	// Peers is the boot membership list (base URLs), normally including
	// Self; every node of a cluster must boot with the same set. The
	// Membership controller can change it at runtime.
	Peers []string
	// Replicas is the virtual-node count per peer; <= 0 means
	// DefaultReplicas.
	Replicas int
	// Dial builds the transport for one remote peer, called once per peer
	// at construction and again for every peer a membership change adds.
	// Required when the membership has (or may gain) any remote peer.
	Dial func(baseURL string) PeerTransport
	// FailureThreshold is how many consecutive fill failures mark a peer
	// down; <= 0 means 3.
	FailureThreshold int
	// DownCooldown is how long a down peer is skipped before a readiness
	// probe may re-admit it; <= 0 means 5s.
	DownCooldown time.Duration
	// ProbeTimeout bounds each /readyz re-admission probe independently
	// of the calling request's deadline, so a black-holed peer cannot
	// wedge the fill path for the full request timeout; <= 0 means 1s.
	ProbeTimeout time.Duration
}

// peer is the health and transport state for one remote member.
type peer struct {
	url string
	tr  PeerTransport

	mu        sync.Mutex
	failures  int       // consecutive fill failures
	downUntil time.Time // skip fills until then once failures >= threshold

	fills      atomic.Int64
	fillErrors atomic.Int64
}

// ringState is one immutable (epoch, ring) generation, swapped atomically
// so fills racing a membership change still see a consistent pair.
type ringState struct {
	epoch uint64
	ring  *Ring
}

// Cluster is one node's view of the shard ring plus per-peer health and
// fill counters. All methods are safe for concurrent use.
type Cluster struct {
	self         string
	replicas     int // vnodes per peer
	threshold    int
	cooldown     time.Duration
	probeTimeout time.Duration
	dial         func(string) PeerTransport

	state atomic.Pointer[ringState]

	memberMu sync.Mutex // serializes membership swaps

	peersMu sync.RWMutex
	peers   map[string]*peer // remote members only, keyed by URL

	vars *expvar.Map
}

// Counter names in the cluster expvar map (exposed under the server's
// "cluster" key in /debug/vars).
const (
	vFills            = "fills"            // successful peer fills
	vFillErrors       = "fill_errors"      // fills lost to dial/decode/ring faults
	vFillSkips        = "fill_skips"       // fills skipped because the owner is down
	vLocalKeys        = "local_keys"       // misses whose owner is this node
	vMembershipSwaps  = "membership_swaps" // epoch-advancing ring swaps
	vMembershipErrors = "membership_errors"
	vReadyProbes      = "ready_probes" // /readyz probes of cooled-down peers
	vRingLookupErrors = "ring_lookup_errors"
	vWriteErrors      = "write_errors" // debug-handler response writes that failed
)

// New builds a Cluster from cfg. The ring is ready as soon as New returns:
// "joined" means constructed and serving, which is exactly what /readyz
// reports once the listener is up. Later membership changes go through
// Membership.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self must be set")
	}
	members := append([]string(nil), cfg.Peers...)
	found := false
	for _, p := range members {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		members = append(members, cfg.Self)
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.DownCooldown <= 0 {
		cfg.DownCooldown = 5 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	c := &Cluster{
		self:         cfg.Self,
		replicas:     cfg.Replicas,
		threshold:    cfg.FailureThreshold,
		cooldown:     cfg.DownCooldown,
		probeTimeout: cfg.ProbeTimeout,
		dial:         cfg.Dial,
		peers:        make(map[string]*peer),
		vars:         new(expvar.Map).Init(),
	}
	for _, name := range []string{
		vFills, vFillErrors, vFillSkips, vLocalKeys,
		vMembershipSwaps, vMembershipErrors, vReadyProbes,
		vRingLookupErrors, vWriteErrors,
	} {
		c.vars.Set(name, new(expvar.Int))
	}
	c.vars.Set("peers", expvar.Func(func() any { return len(c.Peers()) }))
	c.vars.Set("peers_down", expvar.Func(func() any { return c.DownPeers() }))
	c.vars.Set("epoch", expvar.Func(func() any { return c.Epoch() }))

	ring := NewRing(members, cfg.Replicas)
	for _, u := range ring.Peers() {
		if u == c.self {
			continue
		}
		if c.dial == nil {
			return nil, errors.New("cluster: Config.Dial must be set when the membership has remote peers")
		}
		c.peers[u] = &peer{url: u, tr: c.dial(u)}
	}
	c.state.Store(&ringState{epoch: 1, ring: ring})
	return c, nil
}

// Self returns this node's advertised base URL.
func (c *Cluster) Self() string { return c.self }

// Ready reports whether this node has joined the ring and can place keys.
func (c *Cluster) Ready() bool { return len(c.ring().Peers()) > 0 }

// Epoch returns the current membership epoch. It starts at 1 and advances
// by one on every successful ring swap.
func (c *Cluster) Epoch() uint64 { return c.state.Load().epoch }

// Peers returns the current ring membership, sorted.
func (c *Cluster) Peers() []string { return c.ring().Peers() }

// ring returns the current ring generation.
func (c *Cluster) ring() *Ring { return c.state.Load().ring }

// peerFor returns the health record for a remote member URL, or nil for
// self and for URLs no longer in the membership.
func (c *Cluster) peerFor(url string) *peer {
	c.peersMu.RLock()
	p := c.peers[url]
	c.peersMu.RUnlock()
	return p
}

// CloseIdleConnections closes the idle connections of every peer
// transport that keeps any (service.NewPeerFillClient's does). A node
// calls it once it has drained, so no peer's graceful shutdown waits on a
// connection this node dialed and never used.
func (c *Cluster) CloseIdleConnections() {
	c.peersMu.RLock()
	defer c.peersMu.RUnlock()
	for _, p := range c.peers {
		closeIdle(p.tr)
	}
}

// closeIdle closes tr's idle connections if it keeps a pool of its own.
func closeIdle(tr PeerTransport) {
	if ic, ok := tr.(interface{ CloseIdleConnections() }); ok {
		ic.CloseIdleConnections()
	}
}

// Vars returns the cluster's expvar map for embedding in a server's
// /debug/vars output.
func (c *Cluster) Vars() *expvar.Map { return c.vars }

// Owner returns the primary home peer URL for key, through the
// cluster.ring.lookup failpoint (an armed fault makes the home unknowable
// for this call).
func (c *Cluster) Owner(key string) (string, error) {
	if err := fpRingLookup.Inject(); err != nil {
		c.vars.Add(vRingLookupErrors, 1)
		return "", err
	}
	return c.ring().Owner(key), nil
}

// Owners returns the owner list for key: a one-element list holding its
// primary home, or nil on an empty ring. It reads the ring through the
// cluster.ring.lookup failpoint, like Owner.
func (c *Cluster) Owners(key string) ([]string, error) {
	owner, err := c.Owner(key)
	if err != nil || owner == "" {
		return nil, err
	}
	return []string{owner}, nil
}

// Fill attempts a peer fill for key: if key's owner is a remote peer,
// fetch the answer by POSTing payload to path there and decode the
// response body with decode. served reports whether the returned value
// came from the owner; when served is false the caller must compute
// locally (err, when non-nil, says why the fill was lost — a nil err
// means the key is local or its owner is down, which is not an error).
func (c *Cluster) Fill(ctx context.Context, key, path string, payload []byte, decode func([]byte) (any, error)) (v any, served bool, err error) {
	owner, err := c.Owner(key)
	if err != nil {
		return nil, false, err
	}
	if owner == "" || owner == c.self {
		c.vars.Add(vLocalKeys, 1)
		return nil, false, nil
	}
	p := c.peerFor(owner)
	if p == nil {
		// A racing membership swap just removed the owner.
		return nil, false, nil
	}
	if !c.admit(ctx, p) {
		c.vars.Add(vFillSkips, 1)
		return nil, false, nil
	}
	if err := fpPeerDial.Inject(); err != nil {
		c.fail(p)
		return nil, false, err
	}
	body, err := p.tr.FillPeer(ctx, path, payload)
	if err != nil {
		// A fill whose own caller left (its client disconnected) says
		// nothing of the owner; a deadline, a dial error or a 5xx does.
		if !errors.Is(ctx.Err(), context.Canceled) {
			c.fail(p)
		}
		return nil, false, err
	}
	c.ok(p)
	if err := fpFillDecode.Inject(); err != nil {
		c.vars.Add(vFillErrors, 1)
		p.fillErrors.Add(1)
		return nil, false, err
	}
	v, err = decode(body)
	if err != nil {
		c.vars.Add(vFillErrors, 1)
		p.fillErrors.Add(1)
		return nil, false, fmt.Errorf("cluster: decoding fill from %s: %w", owner, err)
	}
	c.vars.Add(vFills, 1)
	p.fills.Add(1)
	return v, true, nil
}

// admit reports whether p may be dialed right now. Healthy peers pass
// immediately. A down peer is skipped until its cooldown expires, then
// must answer one readiness probe before fills resume — so a process that
// restarts but is not yet serving stays out of the fill path. The probe
// carries its own ProbeTimeout deadline independent of the caller's, so a
// black-holed peer costs at most ProbeTimeout, not the full request
// budget. Concurrent callers may race to probe; the probes are cheap
// idempotent GETs.
func (c *Cluster) admit(ctx context.Context, p *peer) bool {
	p.mu.Lock()
	if p.failures < c.threshold {
		p.mu.Unlock()
		return true
	}
	if time.Now().Before(p.downUntil) {
		p.mu.Unlock()
		return false
	}
	p.mu.Unlock()
	c.vars.Add(vReadyProbes, 1)
	pctx, cancel := context.WithTimeout(ctx, c.probeTimeout)
	err := p.tr.Ready(pctx)
	cancel()
	if err != nil {
		if !errors.Is(ctx.Err(), context.Canceled) {
			c.fail(p)
		}
		return false
	}
	c.ok(p)
	return true
}

// fail records one fill failure against p, marking it down for the
// cooldown once the consecutive-failure threshold is reached.
func (c *Cluster) fail(p *peer) {
	c.vars.Add(vFillErrors, 1)
	p.fillErrors.Add(1)
	p.mu.Lock()
	p.failures++
	if p.failures >= c.threshold {
		p.downUntil = time.Now().Add(c.cooldown)
	}
	p.mu.Unlock()
}

// ok resets p's health after a successful exchange.
func (c *Cluster) ok(p *peer) {
	p.mu.Lock()
	p.failures = 0
	p.downUntil = time.Time{}
	p.mu.Unlock()
}

// DownPeers counts remote peers currently marked down.
func (c *Cluster) DownPeers() int {
	c.peersMu.RLock()
	defer c.peersMu.RUnlock()
	n := 0
	for _, p := range c.peers {
		p.mu.Lock()
		if p.failures >= c.threshold && time.Now().Before(p.downUntil) {
			n++
		}
		p.mu.Unlock()
	}
	return n
}

// PeerStatus is one member's row in Status.
type PeerStatus struct {
	URL        string `json:"url"`
	Self       bool   `json:"self,omitempty"`
	Down       bool   `json:"down"`
	Failures   int    `json:"failures"`
	Fills      int64  `json:"fills"`
	FillErrors int64  `json:"fill_errors"`
}

// Status is a point-in-time snapshot of the ring and peer health, served
// by the /debug/cluster handler.
type Status struct {
	Self     string       `json:"self"`
	Ready    bool         `json:"ready"`
	Epoch    uint64       `json:"epoch"`
	Replicas int          `json:"replicas"`
	Peers    []PeerStatus `json:"peers"`
}

// Status snapshots the cluster: membership in ring order, per-peer health
// and fill counters, and the membership epoch.
func (c *Cluster) Status() Status {
	st := c.state.Load()
	out := Status{
		Self:     c.self,
		Ready:    len(st.ring.Peers()) > 0,
		Epoch:    st.epoch,
		Replicas: st.ring.Replicas(),
	}
	for _, u := range st.ring.Peers() {
		ps := PeerStatus{URL: u, Self: u == c.self}
		if p := c.peerFor(u); p != nil {
			p.mu.Lock()
			ps.Failures = p.failures
			ps.Down = p.failures >= c.threshold && time.Now().Before(p.downUntil)
			p.mu.Unlock()
			ps.Fills = p.fills.Load()
			ps.FillErrors = p.fillErrors.Load()
		}
		out.Peers = append(out.Peers, ps)
	}
	return out
}
