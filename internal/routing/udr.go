package routing

import (
	"math/rand"

	"torusnet/internal/torus"
)

// UDR is Unordered Dimensional Routing (§7): each dimension in which source
// and destination differ is corrected completely, in the direction of the
// shortest cyclic distance (ties broken toward (+), as in restricted ODR),
// but the s differing dimensions may be corrected in any of the s! orders.
// Every order yields a distinct shortest path, giving |C^UDR_{p→q}| = s!
// and with it the fault tolerance the paper motivates.
type UDR struct{}

// Name implements Algorithm.
func (UDR) Name() string { return "UDR" }

// differing collects the dimensions where p and q differ along with their
// canonical correction deltas.
func differing(t *torus.Torus, p, q torus.Node) (dims []int, deltas []torus.Delta) {
	for j := 0; j < t.D(); j++ {
		del := torus.CoordDelta(t.Coord(p, j), t.Coord(q, j), t.K())
		if del.Dist > 0 {
			dims = append(dims, j)
			deltas = append(deltas, del)
		}
	}
	return dims, deltas
}

// PathCount implements Algorithm: s! where s is the number of differing
// dimensions.
func (UDR) PathCount(t *torus.Torus, p, q torus.Node) float64 {
	dims, _ := differing(t, p, q)
	return factorial(len(dims))
}

// ForEachPath implements Algorithm, enumerating correction orders in
// lexicographic order of the dimension sequence.
func (UDR) ForEachPath(t *torus.Torus, p, q torus.Node, visit func(Path) bool) {
	dims, deltas := differing(t, p, q)
	s := len(dims)
	order := make([]int, 0, s)
	used := make([]bool, s)
	total := t.LeeDistance(p, q)
	var rec func() bool
	rec = func() bool {
		if len(order) == s {
			edges := make([]torus.Edge, 0, total)
			cur := p
			for _, idx := range order {
				cur = walkDim(t, cur, dims[idx], deltas[idx].Dir, deltas[idx].Dist, &edges)
			}
			return visit(Path{Start: p, Edges: edges})
		}
		for i := 0; i < s; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			order = append(order, i)
			cont := rec()
			order = order[:len(order)-1]
			used[i] = false
			if !cont {
				return false
			}
		}
		return true
	}
	rec()
}

// AccumulatePair implements Algorithm without enumerating the s! orders:
// see accumulateSegments.
func (UDR) AccumulatePair(t *torus.Torus, p, q torus.Node, w float64, loads []float64, sc *PairScratch) {
	statPairsUDR.Inc()
	accumulateSegments(t, p, q, w, loads, sc, false)
}

// SamplePath implements Algorithm: a uniformly random correction order.
func (UDR) SamplePath(t *torus.Torus, p, q torus.Node, rng *rand.Rand) Path {
	dims, deltas := differing(t, p, q)
	edges := make([]torus.Edge, 0, t.LeeDistance(p, q))
	cur := p
	for _, idx := range rng.Perm(len(dims)) {
		cur = walkDim(t, cur, dims[idx], deltas[idx].Dir, deltas[idx].Dist, &edges)
	}
	return Path{Start: p, Edges: edges}
}
