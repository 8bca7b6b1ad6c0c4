package bisect

import (
	"torusnet/internal/placement"
	"torusnet/internal/torus"
)

// Sweep realizes the appendix construction (proof of Proposition 1): sweep
// a hyperplane with normal direction (1, γ, γ², …, γ^{d−1}) across the
// standard array embedding of the torus and stop when exactly ⌊|P|/2⌋
// processors lie on the origin side.
//
// The paper takes γ transcendental in (1, 2^{1/(d−1)}) so that no two
// lattice points share a hyperplane and the sweep picks up processors one
// at a time. Transcendence is only used to rule out ties among the finitely
// many coordinate differences |c_i| < k, so we substitute γ = (M+1)/M with
// M = max(k, d, 16) and do exact integer arithmetic: a tie would mean
// Σ c_i (M+1)^{i} M^{d−1−i} = 0 with some c_i ≠ 0, and reducing modulo M
// forces c_{d−1} = … = c_0 = 0, a contradiction. The same choice satisfies
// the proof's inequalities 1 < γ < … < γ^{d−1} < 2 (since (1+1/M)^{d−1} ≤
// e^{(d−1)/M} < 2 for M ≥ d) and r·γ^{i−1} ≥ 2 > γ^{d−1} for r ≥ 2.
//
// The resulting cut is balanced within one processor for any placement and
// crosses at most 2·d·k^{d−1} undirected array edges plus the d·k^{d−1}
// undirected wrap edges — i.e. at most 6·d·k^{d−1} directed torus edges,
// the Corollary 1 ceiling.
//
// The sweep order depends only on (k, d), so it comes from the shape's
// cached Table: the cut stops right after the ⌊|P|/2⌋-th processor in
// sweep order (the proof's t0), found by one O(|P|) selection over the
// processors' ranks, and its width is the table's prefix width.
//
// Sweep and the other constructors are inlinable wrappers around a
// function returning the Cut by value, so a caller that only reads the
// cut, or copies it into a value of its own, keeps it off the heap.
func Sweep(p *placement.Placement) *Cut {
	c := sweep(p)
	return &c
}

func sweep(p *placement.Placement) Cut {
	tb := TableFor(p.Torus())
	lo, _ := tb.window(p.Nodes())
	return sweepCut(p, tb, lo, "sweep")
}

// sweepCut is the cut whose A side is prefix n of tb.
func sweepCut(p *placement.Placement, tb *Table, n int, method string) Cut {
	procsA := 0
	for _, u := range p.Nodes() {
		if tb.Rank(u) < n {
			procsA++
		}
	}
	return Cut{
		Torus:  p.Torus(),
		ProcsA: procsA,
		ProcsB: p.Size() - procsA,
		Method: method,
		width:  tb.Width(n),
		tab:    tb,
		prefix: n,
	}
}

// SweepCeiling returns the Corollary 1 ceiling 6·d·k^{d−1} on the directed
// crossing count of a sweep cut.
func SweepCeiling(t *torus.Torus) int {
	// k^{d-1} is a slab of the already-validated torus, so read it off the
	// node count instead of re-multiplying (torus.New bounds it by MaxNodes).
	return 6 * t.D() * (t.Nodes() / t.K())
}

// WrapEdge reports whether e is a wrap link of the array embedding: it
// joins coordinates 0 and k−1 of its dimension.
func WrapEdge(t *torus.Torus, e torus.Edge) bool {
	j := t.EdgeDim(e)
	cs, cd := t.Coord(t.EdgeSource(e), j), t.Coord(t.EdgeTarget(e), j)
	return (cs == 0 && cd == t.K()-1) || (cs == t.K()-1 && cd == 0)
}

// ArraySlabCrossings splits a cut's directed crossing edges into *array*
// (non-wrap) edges and wrap edges. It decomposes a sweep cut's width for
// the appendix argument, which bounds the two kinds separately.
func ArraySlabCrossings(t *torus.Torus, cut *Cut) (arrayEdges, wrapEdges int) {
	for _, e := range cut.Edges() {
		if WrapEdge(t, e) {
			wrapEdges++
		} else {
			arrayEdges++
		}
	}
	return arrayEdges, wrapEdges
}
