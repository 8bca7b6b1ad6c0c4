package bisect

import (
	"torusnet/internal/placement"
)

// BestSweep refines Sweep: among all hyperplane positions that balance the
// placement (the threshold can sit anywhere between the ⌊|P|/2⌋-th
// processor and the next one in sweep order), it returns the cut with the
// fewest crossing edges, the first one on ties. The prefix widths come
// from the shape's cached Table, so the scan costs O(|P|) to find the
// window plus the window's length.
func BestSweep(p *placement.Placement) *Cut {
	c := bestSweep(p)
	return &c
}

func bestSweep(p *placement.Placement) Cut {
	tb := TableFor(p.Torus())
	lo, hi := tb.window(p.Nodes())
	best := lo
	for n := lo + 1; n <= hi; n++ {
		if tb.Width(n) < tb.Width(best) {
			best = n
		}
	}
	// Keep both sides nonempty even for degenerate placements.
	if best == 0 {
		best = 1
	}
	if best == tb.Len() {
		best = tb.Len() - 1
	}
	return sweepCut(p, tb, best, "best-sweep")
}
