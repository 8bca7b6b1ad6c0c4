// Package bisect implements bisection of the torus with respect to a
// placement (Definition 8): partitions of the full node set that split the
// placement's processors evenly, minimizing (or bounding) the number of
// directed edges crossing the partition.
//
// Three constructions are provided:
//
//   - DimensionCut: the Theorem 1 construction — two antipodal cuts across
//     one dimension, exactly 4·k^{d−1} directed edges, balanced for any
//     placement that is uniform along that dimension.
//   - Sweep: the appendix construction — a hyperplane with normal
//     (1, γ, γ², …, γ^{d−1}) sweeping the array embedding, at most
//     6·d·k^{d−1} directed torus edges (Corollary 1), balanced within one
//     processor for *any* placement.
//   - BruteForce: the true optimum by exhaustive search, feasible only for
//     tiny tori; it anchors the other two in tests.
//
// The first two never walk the torus per call: the dimension cut's width
// is Theorem 1's closed form and its balance a count over the processors,
// and the sweep reads a per-(k, d) Table built once and cached.
package bisect

import (
	"fmt"
	"strconv"

	"torusnet/internal/placement"
	"torusnet/internal/torus"
)

// Cut is a partition of the torus node set together with its width, the
// number of directed edges crossing it. The node sides and the crossing
// edges are derived on demand by SideA and Edges.
type Cut struct {
	Torus *torus.Torus
	// ProcsA and ProcsB count placement processors on each side.
	ProcsA, ProcsB int
	Method         string

	width int
	// Side A is the first prefix nodes of the sweep table tab when tab is
	// set, the explicit mask side when that is set, and otherwise the
	// layers 1 .. k/2 along dimension dim.
	tab    *Table
	prefix int
	side   []bool
	dim    int
}

// Width returns the number of directed crossing edges.
func (c *Cut) Width() int { return c.width }

// inA reports whether node u lies on the A side.
func (c *Cut) inA(u torus.Node) bool {
	switch {
	case c.tab != nil:
		return c.tab.Rank(u) < c.prefix
	case c.side != nil:
		return c.side[u]
	default:
		v := c.Torus.Coord(u, c.dim)
		return v >= 1 && v <= c.Torus.K()/2
	}
}

// SideA returns a fresh mask that is true for the nodes on the A side.
func (c *Cut) SideA() []bool {
	side := make([]bool, c.Torus.Nodes())
	for u := range side {
		side[u] = c.inA(torus.Node(u))
	}
	return side
}

// Edges returns the directed edges with endpoints on different sides, in
// increasing edge order. It walks every edge of the torus.
func (c *Cut) Edges() []torus.Edge {
	t := c.Torus
	edges := make([]torus.Edge, 0, c.width)
	t.ForEachEdge(func(e torus.Edge) {
		if c.inA(t.EdgeSource(e)) != c.inA(t.EdgeTarget(e)) {
			edges = append(edges, e)
		}
	})
	return edges
}

// Balanced reports whether the processor counts differ by at most one.
func (c *Cut) Balanced() bool {
	diff := c.ProcsA - c.ProcsB
	if diff < 0 {
		diff = -diff
	}
	return diff <= 1
}

// String summarizes the cut.
func (c *Cut) String() string {
	return fmt.Sprintf("%s cut: width=%d, processors %d|%d", c.Method, c.Width(), c.ProcsA, c.ProcsB)
}

// finalize counts the crossing edges and the processors on each side of an
// explicit side mask.
func finalize(t *torus.Torus, p *placement.Placement, sideA []bool, method string) *Cut {
	cut := &Cut{Torus: t, side: sideA, Method: method}
	t.ForEachEdge(func(e torus.Edge) {
		if sideA[t.EdgeSource(e)] != sideA[t.EdgeTarget(e)] {
			cut.width++
		}
	})
	for _, u := range p.Nodes() {
		if sideA[u] {
			cut.ProcsA++
		} else {
			cut.ProcsB++
		}
	}
	return cut
}

// Verify checks the structural invariants of a cut: its width and
// processor counts match a full recount over its sides, and both sides
// are nonempty.
func (c *Cut) Verify(p *placement.Placement) error {
	side := c.SideA()
	re := finalize(c.Torus, p, side, c.Method)
	if re.width != c.width {
		return fmt.Errorf("bisect: recorded %d crossing edges, recomputed %d", c.width, re.width)
	}
	if re.ProcsA != c.ProcsA || re.ProcsB != c.ProcsB {
		return fmt.Errorf("bisect: recorded processor split %d|%d, recomputed %d|%d",
			c.ProcsA, c.ProcsB, re.ProcsA, re.ProcsB)
	}
	a, b := false, false
	for _, s := range side {
		if s {
			a = true
		} else {
			b = true
		}
	}
	if !a || !b {
		return fmt.Errorf("bisect: cut does not split the node set")
	}
	return nil
}

// DimensionCut realizes the Theorem 1 bisection: along the chosen
// dimension, side A consists of the subtori with values 1 .. k/2, so the
// removed links are the two crossings (0|1) and (k/2 | k/2+1), exactly
// 4·k^{d−1} directed edges (at k = 2 and 3 the two crossings share links,
// which the parallel directed edges make up for). For a placement uniform
// along the dimension the split is exactly even when k is even; for odd k
// side A holds ⌊k/2⌋ of the k subtorus layers. It costs O(k) over the
// placement's layer counts, which take one O(d·|P|) pass, once.
func DimensionCut(p *placement.Placement, dim int) *Cut {
	t := p.Torus()
	if dim < 0 || dim >= t.D() {
		panic("bisect: dimension out of range")
	}
	c := dimensionCut(p, dim, layerProcs(p, dim))
	return &c
}

// BestDimensionCut tries every dimension and returns the most balanced cut
// (ties broken by the lower dimension; every dimension cut has the same
// width). It costs O(d·|P|) the first time the placement's layer counts
// are needed, O(d·k) after.
func BestDimensionCut(p *placement.Placement) *Cut {
	c := bestDimensionCut(p)
	return &c
}

func bestDimensionCut(p *placement.Placement) Cut {
	bestDim, bestA := 0, 0
	for dim := 0; dim < p.Torus().D(); dim++ {
		a := layerProcs(p, dim)
		if dim == 0 || abs(2*a-p.Size()) < abs(2*bestA-p.Size()) {
			bestDim, bestA = dim, a
		}
	}
	return dimensionCut(p, bestDim, bestA)
}

// layerProcs counts the processors in layers 1 .. k/2 along dim from the
// placement's cached layer counts.
func layerProcs(p *placement.Placement, dim int) int {
	a := 0
	for v := 1; v <= p.Torus().K()/2; v++ {
		a += p.CountInSubtorus(torus.Subtorus{Dim: dim, Value: v})
	}
	return a
}

func dimensionCut(p *placement.Placement, dim, procsA int) Cut {
	t := p.Torus()
	return Cut{
		Torus:  t,
		ProcsA: procsA,
		ProcsB: p.Size() - procsA,
		Method: dimensionMethods[dim],
		width:  4 * (t.Nodes() / t.K()),
		dim:    dim,
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// dimensionMethods are the Method names of the dimension cuts along the
// dimensions a torus can have (k ≥ 2 and k^d ≤ torus.MaxNodes bound d by
// 28), spelled once so a cut costs no string.
var dimensionMethods = func() (m [29]string) {
	for dim := range m {
		m[dim] = "dimension(" + strconv.Itoa(dim) + ")"
	}
	return m
}()

// Methods lists every Method a cut this package builds can carry.
func Methods() []string {
	return append([]string{"sweep", "best-sweep", "brute-force"}, dimensionMethods[:]...)
}
