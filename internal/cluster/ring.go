package cluster

import (
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count per peer used when a ring is
// built with replicas <= 0. 64 vnodes per peer keeps the worst observed
// ownership imbalance on an 8-peer ring within a few percent of uniform
// while the whole ring for a dozen peers still fits in one cache line's
// worth of binary-search depth.
const DefaultReplicas = 64

// Ring is an immutable consistent-hash ring over peer base URLs. Each peer
// contributes replicas virtual nodes at fnv64a("peer#i") positions; a key
// is owned by the first virtual node clockwise from fnv64a(key). Because
// the vnode positions of surviving peers never move, removing one peer
// relocates only the keys that peer owned — the rebalance-minimality the
// paper's placement work wants from a shard map (each key has exactly one
// home, and membership churn moves the minimum number of homes).
//
// Determinism matters as much as balance: every node of a cluster builds
// its ring independently from the same membership list and must agree on
// every key's home, so construction depends only on the (deduplicated,
// sorted) peer set and the replica count — never on insertion order.
type Ring struct {
	replicas int
	peers    []string // sorted, deduplicated
	hashes   []uint64 // sorted vnode positions
	owners   []string // owners[i] owns hashes[i]
}

// NewRing builds a ring over peers with the given virtual-node count per
// peer (<= 0 means DefaultReplicas). Duplicate peers collapse; an empty
// peer list yields a ring that owns nothing.
func NewRing(peers []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	uniq := make([]string, 0, len(peers))
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		uniq = append(uniq, p)
	}
	sort.Strings(uniq)

	type vnode struct {
		h     uint64
		owner string
	}
	vnodes := make([]vnode, 0, len(uniq)*replicas)
	for _, p := range uniq {
		for i := 0; i < replicas; i++ {
			vnodes = append(vnodes, vnode{hash64(p + "#" + strconv.Itoa(i)), p})
		}
	}
	// Ties broken by owner so two peers colliding on a position still
	// yield one deterministic ring on every node.
	sort.Slice(vnodes, func(i, j int) bool {
		if vnodes[i].h != vnodes[j].h {
			return vnodes[i].h < vnodes[j].h
		}
		return vnodes[i].owner < vnodes[j].owner
	})

	r := &Ring{
		replicas: replicas,
		peers:    uniq,
		hashes:   make([]uint64, len(vnodes)),
		owners:   make([]string, len(vnodes)),
	}
	for i, v := range vnodes {
		r.hashes[i] = v.h
		r.owners[i] = v.owner
	}
	return r
}

// Owner returns the peer owning key: the first virtual node at or
// clockwise past fnv64a(key), wrapping at the top of the hash space.
// An empty ring owns nothing and returns "". Owner is allocation-free.
func (r *Ring) Owner(key string) string {
	if len(r.hashes) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.hashes), func(j int) bool { return r.hashes[j] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owners[i]
}

// Peers returns the ring membership, sorted. The slice is shared; callers
// must not mutate it.
func (r *Ring) Peers() []string { return r.peers }

// Replicas returns the virtual-node count per peer.
func (r *Ring) Replicas() int { return r.replicas }

// hash64 is inlined FNV-1a over s (allocation-free, unlike hash/fnv which
// needs a heap-allocated state plus a []byte conversion on every call —
// Owner sits on the request hot path when clustering is enabled), finished
// with a splitmix64 avalanche. Raw FNV-1a positions for inputs differing
// only in a trailing counter ("peer#0", "peer#1", …) cluster on the ring —
// on an 8-peer ring the hottest peer owned over a quarter of the keyspace
// and adding vnodes barely moved it. The finalizer decorrelates those
// positions, bringing worst-case ownership near uniform.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
