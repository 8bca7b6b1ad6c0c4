package routing

import (
	"math/rand"

	"torusnet/internal/torus"
)

// ODR is the paper's restricted Ordered Dimensional Routing (§6): dimensions
// are corrected completely in increasing order, each in the direction of
// shortest cyclic distance, and a tie (k even, coordinates k/2 apart) is
// broken toward the (+) direction. There is exactly one canonical path per
// pair regardless of the parity of k.
type ODR struct{}

// Name implements Algorithm.
func (ODR) Name() string { return "ODR" }

// PathCount implements Algorithm; ODR always specifies exactly one path.
func (ODR) PathCount(t *torus.Torus, p, q torus.Node) float64 { return 1 }

// path builds the canonical ODR path.
func odrPath(t *torus.Torus, p, q torus.Node) Path {
	edges := make([]torus.Edge, 0, t.LeeDistance(p, q))
	cur := p
	for j := 0; j < t.D(); j++ {
		del := torus.CoordDelta(t.Coord(cur, j), t.Coord(q, j), t.K())
		cur = walkDim(t, cur, j, del.Dir, del.Dist, &edges)
	}
	return Path{Start: p, Edges: edges}
}

// ForEachPath implements Algorithm.
func (ODR) ForEachPath(t *torus.Torus, p, q torus.Node, visit func(Path) bool) {
	visit(odrPath(t, p, q))
}

// AccumulatePair implements Algorithm: each edge of the unique path
// carries the message with probability 1.
func (ODR) AccumulatePair(t *torus.Torus, p, q torus.Node, w float64, loads []float64, sc *PairScratch) {
	statPairsODR.Inc()
	cur := p
	for j := 0; j < t.D(); j++ {
		del := torus.CoordDelta(t.Coord(cur, j), t.Coord(q, j), t.K())
		cur = accumulateDim(t, cur, j, del.Dir, del.Dist, w, loads)
	}
}

// SamplePath implements Algorithm; the canonical path is the only one.
func (ODR) SamplePath(t *torus.Torus, p, q torus.Node, rng *rand.Rand) Path {
	return odrPath(t, p, q)
}

// ODRMulti is the unrestricted ODR of §6: dimensions are still corrected in
// increasing order, but when k is even and a coordinate pair is exactly k/2
// apart both directions are shortest and both are allowed. The path set has
// size 2^(#tied dimensions).
type ODRMulti struct{}

// Name implements Algorithm.
func (ODRMulti) Name() string { return "ODR-multi" }

// PathCount implements Algorithm.
func (ODRMulti) PathCount(t *torus.Torus, p, q torus.Node) float64 {
	count := 1.0
	for j := 0; j < t.D(); j++ {
		if torus.CoordDelta(t.Coord(p, j), t.Coord(q, j), t.K()).Tie {
			count *= 2
		}
	}
	return count
}

// ForEachPath implements Algorithm: enumerates all direction assignments for
// tied dimensions, Plus before Minus, earlier dimensions varying slowest.
func (ODRMulti) ForEachPath(t *torus.Torus, p, q torus.Node, visit func(Path) bool) {
	deltas := make([]torus.Delta, t.D())
	t.Deltas(p, q, deltas)
	var tied []int
	for j, del := range deltas {
		if del.Tie {
			tied = append(tied, j)
		}
	}
	for mask := 0; mask < 1<<len(tied); mask++ {
		dirs := make([]torus.Direction, t.D())
		for j, del := range deltas {
			dirs[j] = del.Dir
		}
		for bit, j := range tied {
			if mask&(1<<bit) != 0 {
				dirs[j] = torus.Minus
			}
		}
		edges := make([]torus.Edge, 0, t.LeeDistance(p, q))
		cur := p
		for j, del := range deltas {
			cur = walkDim(t, cur, j, dirs[j], del.Dist, &edges)
		}
		if !visit(Path{Start: p, Edges: edges}) {
			return
		}
	}
}

// AccumulatePair implements Algorithm. Dimensions are corrected in a
// fixed order and a tied dimension's two arcs converge on the same node, so
// the path set never forks: the kernel is a single forward walk in which a
// tied dimension splits the mass in half across its two arcs and every
// other segment carries all of it.
func (ODRMulti) AccumulatePair(t *torus.Torus, p, q torus.Node, w float64, loads []float64, sc *PairScratch) {
	statPairsODRMulti.Inc()
	cur := p
	for j := 0; j < t.D(); j++ {
		del := torus.CoordDelta(t.Coord(p, j), t.Coord(q, j), t.K())
		if del.Dist == 0 {
			continue
		}
		if del.Tie {
			accumulateDim(t, cur, j, torus.Plus, del.Dist, 0.5*w, loads)
			cur = accumulateDim(t, cur, j, torus.Minus, del.Dist, 0.5*w, loads)
		} else {
			cur = accumulateDim(t, cur, j, del.Dir, del.Dist, w, loads)
		}
	}
}

// SamplePath implements Algorithm.
func (ODRMulti) SamplePath(t *torus.Torus, p, q torus.Node, rng *rand.Rand) Path {
	edges := make([]torus.Edge, 0, t.LeeDistance(p, q))
	cur := p
	for j := 0; j < t.D(); j++ {
		del := torus.CoordDelta(t.Coord(cur, j), t.Coord(q, j), t.K())
		dir := del.Dir
		if del.Tie && rng.Intn(2) == 1 {
			dir = torus.Minus
		}
		cur = walkDim(t, cur, j, dir, del.Dist, &edges)
	}
	return Path{Start: p, Edges: edges}
}
