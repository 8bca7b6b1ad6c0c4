package cluster

import "torusnet/internal/failpoint"

// Chaos-injection sites for the peer-fill pipeline, following the repo's
// <package>.<stage>[.<op>] convention (DESIGN.md §10). Every cluster fault
// is survivable by design: the serving node falls back to computing the
// answer locally, so an armed site degrades cluster efficiency, never
// availability. Each disarmed site costs one atomic pointer load.
var (
	// fpRingLookup fires before the consistent-hash lookup of a key's home
	// peer. An armed fault makes the home unknowable for this request; the
	// caller computes locally.
	fpRingLookup = failpoint.New("cluster.ring.lookup")
	// fpPeerDial fires before dialing the home peer and counts as a dial
	// failure against that peer's health: enough consecutive armed faults
	// trip the failure threshold and mark the peer down, exercising the
	// cooldown + readiness-probe recovery path.
	fpPeerDial = failpoint.New("cluster.peer.dial")
	// fpFillDecode fires between a successful peer response and decoding
	// it, modeling a corrupt or truncated fill body. The fetched bytes are
	// discarded and the caller computes locally; the peer's health is
	// unaffected (the wire exchange succeeded).
	fpFillDecode = failpoint.New("cluster.fill.decode")
	// fpMembershipSwap fires at the head of every membership ring swap,
	// before any state is touched. An armed fault rejects the Join/Leave/
	// Set wholesale: the epoch does not advance and the previous ring
	// generation keeps serving.
	fpMembershipSwap = failpoint.New("cluster.membership.swap")
)
