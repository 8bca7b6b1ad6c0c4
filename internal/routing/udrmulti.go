package routing

import (
	"math/rand"

	"torusnet/internal/torus"
)

// UDRMulti is UDR with tie expansion: correction orders are arbitrary as in
// UDR, and additionally a dimension whose coordinates are exactly k/2 apart
// (k even) may be corrected in either direction. It completes the algorithm
// matrix (ODR : ODRMulti :: UDR : UDRMulti) and maximizes the path count
// among dimension-ordered schemes: |C| = s! · 2^T for s differing
// dimensions of which T are tied.
type UDRMulti struct{}

// Name implements Algorithm.
func (UDRMulti) Name() string { return "UDR-multi" }

// PathCount implements Algorithm.
func (UDRMulti) PathCount(t *torus.Torus, p, q torus.Node) float64 {
	dims, deltas := differing(t, p, q)
	count := factorial(len(dims))
	for _, del := range deltas {
		if del.Tie {
			count *= 2
		}
	}
	return count
}

// ForEachPath implements Algorithm: tie masks vary fastest, orders slowest,
// both in deterministic order.
func (UDRMulti) ForEachPath(t *torus.Torus, p, q torus.Node, visit func(Path) bool) {
	dims, deltas := differing(t, p, q)
	s := len(dims)
	var tied []int
	for i, del := range deltas {
		if del.Tie {
			tied = append(tied, i)
		}
	}
	total := t.LeeDistance(p, q)
	order := make([]int, 0, s)
	used := make([]bool, s)
	dirs := make([]torus.Direction, s)
	var rec func() bool
	rec = func() bool {
		if len(order) == s {
			for mask := 0; mask < 1<<len(tied); mask++ {
				for i, del := range deltas {
					dirs[i] = del.Dir
				}
				for bit, idx := range tied {
					if mask&(1<<bit) != 0 {
						dirs[idx] = torus.Minus
					}
				}
				edges := make([]torus.Edge, 0, total)
				cur := p
				for _, idx := range order {
					cur = walkDim(t, cur, dims[idx], dirs[idx], deltas[idx].Dist, &edges)
				}
				if !visit(Path{Start: p, Edges: edges}) {
					return false
				}
			}
			return true
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

// AccumulatePair implements Algorithm. The order-position weights are
// exactly UDR's; tie expansion halves each tied dimension's segment mass
// between its two arcs, independently of everything else, because a
// completed correction ends at the same node either way.
func (UDRMulti) AccumulatePair(t *torus.Torus, p, q torus.Node, w float64, loads []float64, sc *PairScratch) {
	statPairsUDRMulti.Inc()
	accumulateSegments(t, p, q, w, loads, sc, true)
}

// SamplePath implements Algorithm: uniform order, uniform tie directions.
func (UDRMulti) SamplePath(t *torus.Torus, p, q torus.Node, rng *rand.Rand) Path {
	dims, deltas := differing(t, p, q)
	edges := make([]torus.Edge, 0, t.LeeDistance(p, q))
	cur := p
	for _, idx := range rng.Perm(len(dims)) {
		dir := deltas[idx].Dir
		if deltas[idx].Tie && rng.Intn(2) == 1 {
			dir = torus.Minus
		}
		cur = walkDim(t, cur, dims[idx], dir, deltas[idx].Dist, &edges)
	}
	return Path{Start: p, Edges: edges}
}
