package cluster

import (
	"fmt"
	"testing"
)

func ringPeers(n int) []string {
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return peers
}

// TestRingDeterministicAcrossOrderings pins the property every node
// depends on: two rings built from the same membership in different
// orders (and with duplicates) agree on every key's owner.
func TestRingDeterministicAcrossOrderings(t *testing.T) {
	peers := ringPeers(5)
	shuffled := []string{peers[3], peers[0], peers[4], peers[0], peers[2], peers[1]}
	a := NewRing(peers, 0)
	b := NewRing(shuffled, 0)
	if len(a.Peers()) != 5 || len(b.Peers()) != 5 {
		t.Fatalf("membership = %d/%d peers, want 5 (duplicates must collapse)", len(a.Peers()), len(b.Peers()))
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("analyze|k=%d|d=2|p=linear:0|a=odr", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("rings built from reordered membership disagree on %q", key)
		}
	}
}

// TestRingEmptyAndSingle covers the degenerate rings.
func TestRingEmptyAndSingle(t *testing.T) {
	if got := NewRing(nil, 0).Owner("key"); got != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", got)
	}
	solo := NewRing([]string{"http://self"}, 0)
	for i := 0; i < 100; i++ {
		if got := solo.Owner(fmt.Sprintf("key-%d", i)); got != "http://self" {
			t.Fatalf("single-peer ring owner = %q", got)
		}
	}
}

// TestRingFullCoverage checks structure: every peer contributes exactly
// replicas virtual nodes and actually owns keys (no peer is shadowed).
func TestRingFullCoverage(t *testing.T) {
	peers := ringPeers(8)
	r := NewRing(peers, 0)
	if got, want := len(r.hashes), 8*DefaultReplicas; got != want {
		t.Fatalf("ring has %d vnodes, want %d", got, want)
	}
	vnodes := make(map[string]int)
	for _, o := range r.owners {
		vnodes[o]++
	}
	owned := make(map[string]int)
	for i := 0; i < 4096; i++ {
		owned[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, p := range peers {
		if vnodes[p] != DefaultReplicas {
			t.Errorf("peer %s has %d vnodes, want %d", p, vnodes[p], DefaultReplicas)
		}
		if owned[p] == 0 {
			t.Errorf("peer %s owns no keys out of 4096", p)
		}
	}
}

// TestRingRebalanceGolden is the deterministic rebalance check: on an
// 8-peer ring with 4096 keys, removing any one peer must move exactly the
// keys that peer owned (consistency theorem) and at most 25% of all keys
// (balance); joining a 9th peer must move keys only onto the newcomer, at
// most 25% of them; and the per-peer ownership and join-movement counts
// are pinned as goldens so any change to the hash or vnode scheme is a
// visible diff.
func TestRingRebalanceGolden(t *testing.T) {
	const keys = 4096
	peers := ringPeers(8)
	full := NewRing(peers, 0)

	owned := make(map[string]int)
	ownerOf := make([]string, keys)
	for i := 0; i < keys; i++ {
		o := full.Owner(fmt.Sprintf("analyze|k=%d|d=2|p=linear:0|a=odr", i))
		ownerOf[i] = o
		owned[o]++
	}
	// Golden per-peer ownership (fnv64a, 64 vnodes/peer, 8 peers, the
	// synthetic analyze keys above). Regenerate by logging `owned` if the
	// hashing scheme deliberately changes.
	want := map[string]int{}
	for i, n := range ringGoldenOwned {
		want[peers[i]] = n
	}
	for _, p := range peers {
		if owned[p] != want[p] {
			t.Errorf("peer %s owns %d keys, golden says %d", p, owned[p], want[p])
		}
	}

	for remove := range peers {
		rest := make([]string, 0, len(peers)-1)
		for i, p := range peers {
			if i != remove {
				rest = append(rest, p)
			}
		}
		smaller := NewRing(rest, 0)
		moved := 0
		for i := 0; i < keys; i++ {
			after := smaller.Owner(fmt.Sprintf("analyze|k=%d|d=2|p=linear:0|a=odr", i))
			if after != ownerOf[i] {
				if ownerOf[i] != peers[remove] {
					t.Fatalf("key %d moved from surviving peer %s to %s when %s left",
						i, ownerOf[i], after, peers[remove])
				}
				moved++
			}
		}
		if moved != owned[peers[remove]] {
			t.Errorf("removing %s moved %d keys, want exactly its %d owned keys",
				peers[remove], moved, owned[peers[remove]])
		}
		if frac := float64(moved) / keys; frac > 0.25 {
			t.Errorf("removing %s moved %.1f%% of keys, want <= 25%%", peers[remove], 100*frac)
		}
	}

	const newcomer = "http://10.0.0.9:8080"
	joined := NewRing(append(append([]string(nil), peers...), newcomer), 0)
	moved := 0
	for i := 0; i < keys; i++ {
		after := joined.Owner(fmt.Sprintf("analyze|k=%d|d=2|p=linear:0|a=odr", i))
		if after != ownerOf[i] {
			if after != newcomer {
				t.Fatalf("key %d moved from %s to %s, not to the joining peer", i, ownerOf[i], after)
			}
			moved++
		}
	}
	if moved != ringGoldenJoinMoved {
		t.Errorf("join moved %d keys, golden says %d", moved, ringGoldenJoinMoved)
	}
	if frac := float64(moved) / keys; frac > 0.25 {
		t.Errorf("join moved %.1f%% of keys, want <= 25%%", 100*frac)
	}
}

// ringGoldenOwned[i] is how many of the 4096 golden keys peer i owns on
// the full 8-peer ring. Filled in by running the test once with -run
// TestRingRebalanceGolden -v after any deliberate hash change.
var ringGoldenOwned = []int{587, 457, 520, 612, 533, 483, 496, 408}

// ringGoldenJoinMoved is how many of the 4096 golden keys change owner
// when a 9th peer joins the 8-peer ring. Expected movement is 1/9 of
// the keyspace (~455); the golden pins the actual count so hash changes
// are a visible diff.
const ringGoldenJoinMoved = 457

// FuzzHashRing fuzzes the per-key invariants: determinism, membership of
// the owner, structural full coverage, and the consistency theorem — a
// key's owner never changes when some other peer leaves. The aggregate
// ≤25% movement bound lives in TestRingRebalanceGolden, where the key set
// is fixed; per-input movement fractions would be chosen adversarially by
// the fuzzer.
func FuzzHashRing(f *testing.F) {
	f.Add("analyze|k=8|d=2|p=linear:0|a=odr", uint8(3), uint8(1))
	f.Add("", uint8(0), uint8(0))
	f.Add("bounds|k=16|d=3|p=full|a=udr", uint8(7), uint8(6))
	f.Fuzz(func(t *testing.T, key string, n, leave uint8) {
		numPeers := 2 + int(n%7) // 2..8 peers
		peers := ringPeers(numPeers)
		r := NewRing(peers, 32)

		owner := r.Owner(key)
		if owner != r.Owner(key) {
			t.Fatal("Owner is not deterministic")
		}
		found := false
		for _, p := range peers {
			if p == owner {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("owner %q is not a member", owner)
		}
		if got, want := len(r.hashes), numPeers*32; got != want {
			t.Fatalf("ring has %d vnodes, want %d", got, want)
		}

		removed := peers[int(leave)%numPeers]
		rest := make([]string, 0, numPeers-1)
		for _, p := range peers {
			if p != removed {
				rest = append(rest, p)
			}
		}
		after := NewRing(rest, 32).Owner(key)
		if owner != removed && after != owner {
			t.Fatalf("key moved from surviving peer %q to %q when %q left", owner, after, removed)
		}
		if owner == removed && after == removed {
			t.Fatalf("key still owned by removed peer %q", removed)
		}
	})
}
