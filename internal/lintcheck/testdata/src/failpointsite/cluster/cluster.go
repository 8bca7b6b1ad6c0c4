// Package cluster mirrors the real internal/cluster failpoint layout: the
// cluster.* sites are declared here (first segment == declaring package),
// and consumers in other packages, scripts, and docs reference them by
// literal name so the registry scan can hold the whole set together.
package cluster

import "fixture/failpoint"

var (
	fpRingLookup     = failpoint.New("cluster.ring.lookup")
	fpPeerDial       = failpoint.New("cluster.peer.dial")
	fpFillDecode     = failpoint.New("cluster.fill.decode")
	fpMembershipSwap = failpoint.New("cluster.membership.swap")
)

// Touch keeps the site variables referenced.
func Touch() {
	_, _, _, _ = fpRingLookup, fpPeerDial, fpFillDecode, fpMembershipSwap
}
