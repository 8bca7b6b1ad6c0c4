package routing

import (
	"fmt"
	"math/rand"

	"torusnet/internal/torus"
)

// ODROrder is restricted ODR with a caller-chosen global correction order:
// dimensions are corrected completely in the order given by Order (a
// permutation of 0..d−1), ties toward (+). ODR is ODROrder with the
// identity permutation. The variant exposes that ODR's funneling hotspots
// are a property of *which* dimensions come first and last, not of the
// dimensions themselves: permuting the order permutes the per-dimension
// load profile accordingly (tested via torus automorphisms).
type ODROrder struct {
	Order []int
}

// Name implements Algorithm.
func (o ODROrder) Name() string { return fmt.Sprintf("ODR%v", o.Order) }

// identityOrder backs the default correction order. A torus has at most
// 28 dimensions (k ≥ 2 and k^d ≤ torus.MaxNodes), well inside its length
// and inside the uint64 order uses to check a permutation.
var identityOrder = func() []int {
	out := make([]int, 64)
	for i := range out {
		out[i] = i
	}
	return out
}()

// order returns the correction order for a d-dimensional torus, panicking
// unless Order is nil (the identity) or a permutation of 0..d−1. It
// allocates nothing, so the pair kernel can call it per pair.
func (o ODROrder) order(d int) []int {
	if o.Order == nil {
		return identityOrder[:d]
	}
	if len(o.Order) != d {
		panic("routing: ODROrder permutation arity mismatch")
	}
	var seen uint64
	for _, j := range o.Order {
		if j < 0 || j >= d || seen&(1<<j) != 0 {
			panic("routing: ODROrder is not a permutation")
		}
		seen |= 1 << j
	}
	return o.Order
}

// PathCount implements Algorithm.
func (o ODROrder) PathCount(t *torus.Torus, p, q torus.Node) float64 { return 1 }

func (o ODROrder) path(t *torus.Torus, p, q torus.Node) Path {
	edges := make([]torus.Edge, 0, t.LeeDistance(p, q))
	cur := p
	for _, j := range o.order(t.D()) {
		del := torus.CoordDelta(t.Coord(cur, j), t.Coord(q, j), t.K())
		cur = walkDim(t, cur, j, del.Dir, del.Dist, &edges)
	}
	return Path{Start: p, Edges: edges}
}

// ForEachPath implements Algorithm.
func (o ODROrder) ForEachPath(t *torus.Torus, p, q torus.Node, visit func(Path) bool) {
	visit(o.path(t, p, q))
}

// AccumulatePair implements Algorithm.
func (o ODROrder) AccumulatePair(t *torus.Torus, p, q torus.Node, w float64, loads []float64, sc *PairScratch) {
	cur := p
	for _, j := range o.order(t.D()) {
		del := torus.CoordDelta(t.Coord(cur, j), t.Coord(q, j), t.K())
		cur = accumulateDim(t, cur, j, del.Dir, del.Dist, w, loads)
	}
}

// SamplePath implements Algorithm.
func (o ODROrder) SamplePath(t *torus.Torus, p, q torus.Node, rng *rand.Rand) Path {
	return o.path(t, p, q)
}
