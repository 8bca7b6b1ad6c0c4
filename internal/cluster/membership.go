package cluster

import (
	"errors"
	"fmt"
)

// Membership is the runtime membership controller for one Cluster. Every
// operation is an epoch-numbered ring swap: the new (epoch, ring) pair is
// built off to the side and published with one atomic pointer store, so
// concurrent fills never observe a half-applied membership and never block
// on a swap. Operations are idempotent — joining a current member or
// removing an absent one returns the current epoch unchanged — so admin
// retries and SIGHUP re-reads are safe.
//
// Consistency across nodes is operational, not consensual: the controller
// applies whatever it is told, and the deployment is responsible for
// telling every node the same thing (the smoke script POSTs the same
// change to every live node's admin endpoint). During the window where
// views disagree, answers stay available and exact: a node whose fill
// fails (the owner it names is gone, down, or unreachable) computes
// locally, and the peer-hop guard means a node serving a fill never fills
// in turn, so disagreeing views cannot send a request around a loop.
type Membership struct {
	c *Cluster
}

// Membership returns the cluster's runtime membership controller.
func (c *Cluster) Membership() *Membership { return &Membership{c: c} }

// Epoch returns the current membership epoch.
func (m *Membership) Epoch() uint64 { return m.c.Epoch() }

// Join adds url to the membership and returns the resulting epoch. Joining
// an existing member is a no-op returning the current epoch.
func (m *Membership) Join(url string) (uint64, error) {
	if url == "" {
		return 0, errors.New("cluster: join: empty peer URL")
	}
	m.c.memberMu.Lock()
	defer m.c.memberMu.Unlock()
	st := m.c.state.Load()
	for _, p := range st.ring.Peers() {
		if p == url {
			return st.epoch, nil
		}
	}
	return m.c.swapLocked(append(append([]string(nil), st.ring.Peers()...), url))
}

// Leave removes url from the membership and returns the resulting epoch.
// Removing an absent peer is a no-op returning the current epoch; a node
// cannot remove itself (kill the process instead, and let the survivors
// remove it).
func (m *Membership) Leave(url string) (uint64, error) {
	if url == m.c.self {
		return 0, fmt.Errorf("cluster: leave: %s is this node; a node cannot leave its own ring", url)
	}
	m.c.memberMu.Lock()
	defer m.c.memberMu.Unlock()
	st := m.c.state.Load()
	next := make([]string, 0, len(st.ring.Peers()))
	for _, p := range st.ring.Peers() {
		if p != url {
			next = append(next, p)
		}
	}
	if len(next) == len(st.ring.Peers()) {
		return st.epoch, nil
	}
	return m.c.swapLocked(next)
}

// Set replaces the membership wholesale (Self is added if absent, as at
// construction) and returns the resulting epoch. A set equal to the
// current membership is a no-op returning the current epoch. SIGHUP
// re-reads of the peers file land here.
func (m *Membership) Set(peers []string) (uint64, error) {
	members := append([]string(nil), peers...)
	found := false
	for _, p := range members {
		if p == m.c.self {
			found = true
			break
		}
	}
	if !found {
		members = append(members, m.c.self)
	}
	m.c.memberMu.Lock()
	defer m.c.memberMu.Unlock()
	st := m.c.state.Load()
	if samePeers(st.ring.Peers(), NewRing(members, m.c.replicas).Peers()) {
		return st.epoch, nil
	}
	return m.c.swapLocked(members)
}

// samePeers reports whether two sorted membership lists are equal.
func samePeers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// swapLocked builds the next ring generation from members, reconciles the
// peer-health map, and publishes the new (epoch, ring) pair. Callers hold
// memberMu. The cluster.membership.swap failpoint fires before anything is
// mutated, so an armed fault leaves the current generation fully intact.
func (c *Cluster) swapLocked(members []string) (uint64, error) {
	if err := fpMembershipSwap.Inject(); err != nil {
		c.vars.Add(vMembershipErrors, 1)
		return 0, err
	}
	ring := NewRing(members, c.replicas)
	for _, u := range ring.Peers() {
		if u == c.self {
			continue
		}
		c.peersMu.RLock()
		_, known := c.peers[u]
		c.peersMu.RUnlock()
		if !known && c.dial == nil {
			c.vars.Add(vMembershipErrors, 1)
			return 0, errors.New("cluster: Config.Dial must be set to admit remote peers")
		}
	}
	c.peersMu.Lock()
	for _, u := range ring.Peers() {
		if u == c.self || c.peers[u] != nil {
			continue
		}
		c.peers[u] = &peer{url: u, tr: c.dial(u)}
	}
	inRing := make(map[string]bool, len(ring.Peers()))
	for _, u := range ring.Peers() {
		inRing[u] = true
	}
	for u, p := range c.peers {
		if !inRing[u] {
			closeIdle(p.tr)
			delete(c.peers, u)
		}
	}
	c.peersMu.Unlock()
	st := &ringState{epoch: c.state.Load().epoch + 1, ring: ring}
	c.state.Store(st)
	c.vars.Add(vMembershipSwaps, 1)
	return st.epoch, nil
}
