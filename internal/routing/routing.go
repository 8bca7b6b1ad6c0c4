// Package routing implements the paper's minimal-path routing algorithms on
// the torus: Ordered Dimensional Routing (ODR, §6), Unordered Dimensional
// Routing (UDR, §7), and — as the natural generalization suggested by the
// load model — fully adaptive minimal routing (FAR) over all shortest paths.
//
// A routing algorithm A assigns to every ordered processor pair (p, q) a
// non-empty set C^A_{p→q} of shortest paths (Definition 3). A message from
// p to q picks one path uniformly at random, so the expected number of
// messages a directed edge l carries during one complete exchange is
//
//	E(l) = Σ_{p≠q} |C^A_{p→l→q}| / |C^A_{p→q}|   (Definition 4).
//
// Every Algorithm can enumerate its path set, count it, sample from it, and
// accumulate the exact weighted per-edge expectation for a pair in place,
// without enumerating: the one kernel every load engine and the placement
// optimizer run.
package routing

import (
	"fmt"
	"math/rand"

	"torusnet/internal/torus"
)

// Path is a directed walk given by its start node and edge sequence. A path
// produced by any Algorithm in this package is a shortest path: its length
// equals the Lee distance between its endpoints.
type Path struct {
	Start torus.Node
	Edges []torus.Edge
}

// Len returns the number of edges.
func (p Path) Len() int { return len(p.Edges) }

// End returns the final node of the path.
func (p Path) End(t *torus.Torus) torus.Node {
	if len(p.Edges) == 0 {
		return p.Start
	}
	return t.EdgeTarget(p.Edges[len(p.Edges)-1])
}

// Nodes expands the path into its node sequence, including both endpoints.
func (p Path) Nodes(t *torus.Torus) []torus.Node {
	out := make([]torus.Node, 0, len(p.Edges)+1)
	out = append(out, p.Start)
	for _, e := range p.Edges {
		out = append(out, t.EdgeTarget(e))
	}
	return out
}

// Validate checks that the path is a connected walk from Start to end and
// that its length equals the Lee distance from Start to end (minimality).
func (p Path) Validate(t *torus.Torus, end torus.Node) error {
	cur := p.Start
	for i, e := range p.Edges {
		if t.EdgeSource(e) != cur {
			return fmt.Errorf("routing: edge %d leaves %v, path is at %v",
				i, t.Coords(t.EdgeSource(e)), t.Coords(cur))
		}
		cur = t.EdgeTarget(e)
	}
	if cur != end {
		return fmt.Errorf("routing: path ends at %v, want %v", t.Coords(cur), t.Coords(end))
	}
	if want := t.LeeDistance(p.Start, end); len(p.Edges) != want {
		return fmt.Errorf("routing: path length %d, Lee distance %d (not minimal)", len(p.Edges), want)
	}
	return nil
}

// Algorithm is a routing algorithm in the sense of Definition 3.
type Algorithm interface {
	// Name is a stable identifier such as "ODR".
	Name() string
	// PathCount returns |C^A_{p→q}|. It is exact; float64 is used because
	// s! and multinomial counts outgrow int64 on large tori.
	PathCount(t *torus.Torus, p, q torus.Node) float64
	// ForEachPath enumerates C^A_{p→q} in a deterministic order, stopping
	// early if visit returns false. Intended for analysis and tests; counts
	// can be factorial in d.
	ForEachPath(t *torus.Torus, p, q torus.Node, visit func(Path) bool)
	// AccumulatePair adds w times the probability that a single p→q message
	// crosses e (= |C^A_{p→e→q}| / |C^A_{p→q}|) into loads[e], for every
	// directed edge e: the weighted per-pair term of Definition 4. It
	// allocates nothing. loads must have length t.Edges(), and sc must come
	// from NewPairScratch for a torus of t's dimension.
	AccumulatePair(t *torus.Torus, p, q torus.Node, w float64, loads []float64, sc *PairScratch)
	// SamplePath draws one path uniformly at random from C^A_{p→q}.
	SamplePath(t *torus.Torus, p, q torus.Node, rng *rand.Rand) Path
}

// walkDim appends to dst the edges of a full correction of dimension j from
// node 'from' moving 'steps' hops in direction dir, and returns the node
// reached.
func walkDim(t *torus.Torus, from torus.Node, j int, dir torus.Direction, steps int, dst *[]torus.Edge) torus.Node {
	cur := from
	for s := 0; s < steps; s++ {
		e := t.EdgeFrom(cur, j, dir)
		*dst = append(*dst, e)
		cur = t.EdgeTarget(e)
	}
	return cur
}

// factorial returns n! as float64; exact for n <= 18.
func factorial(n int) float64 {
	out := 1.0
	for i := 2; i <= n; i++ {
		out *= float64(i)
	}
	return out
}
