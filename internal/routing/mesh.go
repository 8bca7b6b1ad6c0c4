package routing

import (
	"math/rand"

	"torusnet/internal/torus"
)

// MeshODR is dimension-ordered routing on the underlying k-ary array A^d_k
// (the appendix's object): corrections never use wrap links, moving
// monotonically from p_j toward q_j in the sign direction of q_j − p_j.
// Paths are minimal in the *array* metric Σ|q_j − p_j| but can be up to
// twice the torus Lee distance; the load they induce shows exactly what
// the wrap links buy (experiment E27).
type MeshODR struct{}

// Name implements Algorithm.
func (MeshODR) Name() string { return "ODR-mesh" }

// ArrayDistance returns the array (non-wrap) distance between two nodes:
// Σ_j |q_j − p_j| with coordinates in 0..k−1.
func ArrayDistance(t *torus.Torus, p, q torus.Node) int {
	sum := 0
	for j := 0; j < t.D(); j++ {
		diff := t.Coord(q, j) - t.Coord(p, j)
		if diff < 0 {
			diff = -diff
		}
		sum += diff
	}
	return sum
}

func meshDelta(t *torus.Torus, p, q torus.Node, j int) (dist int, dir torus.Direction) {
	diff := t.Coord(q, j) - t.Coord(p, j)
	if diff >= 0 {
		return diff, torus.Plus
	}
	return -diff, torus.Minus
}

// PathCount implements Algorithm: one path per pair.
func (MeshODR) PathCount(t *torus.Torus, p, q torus.Node) float64 { return 1 }

func meshPath(t *torus.Torus, p, q torus.Node) Path {
	edges := make([]torus.Edge, 0, ArrayDistance(t, p, q))
	cur := p
	for j := 0; j < t.D(); j++ {
		dist, dir := meshDelta(t, cur, q, j)
		cur = walkDim(t, cur, j, dir, dist, &edges)
	}
	return Path{Start: p, Edges: edges}
}

// ForEachPath implements Algorithm.
func (MeshODR) ForEachPath(t *torus.Torus, p, q torus.Node, visit func(Path) bool) {
	visit(meshPath(t, p, q))
}

// AccumulatePair implements Algorithm.
func (MeshODR) AccumulatePair(t *torus.Torus, p, q torus.Node, w float64, loads []float64, sc *PairScratch) {
	cur := p
	for j := 0; j < t.D(); j++ {
		dist, dir := meshDelta(t, cur, q, j)
		cur = accumulateDim(t, cur, j, dir, dist, w, loads)
	}
}

// SamplePath implements Algorithm.
func (MeshODR) SamplePath(t *torus.Torus, p, q torus.Node, rng *rand.Rand) Path {
	return meshPath(t, p, q)
}

// UsesWrapLink reports whether any edge of the path crosses a wrap
// boundary (coordinate k−1 → 0 or 0 → k−1).
func UsesWrapLink(t *torus.Torus, path Path) bool {
	for _, e := range path.Edges {
		src := t.Coord(t.EdgeSource(e), t.EdgeDim(e))
		if t.EdgeDir(e) == torus.Plus && src == t.K()-1 {
			return true
		}
		if t.EdgeDir(e) == torus.Minus && src == 0 {
			return true
		}
	}
	return false
}
