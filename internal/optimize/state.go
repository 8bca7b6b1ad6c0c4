package optimize

import (
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// loadEps is the one tolerance every energy comparison in this package
// uses. It absorbs float summation-order noise between incrementally
// maintained loads and the load engine's totals for fractional
// (multi-path) algorithms; single-path loads are small integers and
// ODR-multi loads are dyadic, so both are exact and unaffected.
const loadEps = 1e-9

// loadState holds the per-edge complete-exchange loads of a node set and
// updates them incrementally (Definition 4): adding or removing one node
// changes only the 2(n−1) ordered pairs that touch it, so either costs
// 2(n−1) pair kernel calls, each writing straight into loads, instead of a
// full O(n²) recompute. A checkpoint copies the loads onto a stack and
// revert copies them back, so backtracking restores every edge bit for bit
// and never accumulates float drift. Checkpoints nest, and after the
// stack's first growth no operation allocates. The state is used by one
// goroutine.
type loadState struct {
	t   *torus.Torus
	alg routing.Algorithm
	sc  *routing.PairScratch

	loads []float64 // per-edge load of the current node set
	saved []float64 // checkpointed copies of loads, oldest first
}

// newLoadState returns the empty-set state for alg on t.
func newLoadState(t *torus.Torus, alg routing.Algorithm) *loadState {
	return &loadState{
		t:     t,
		alg:   alg,
		sc:    routing.NewPairScratch(t),
		loads: make([]float64, t.Edges()),
		saved: make([]float64, 0, t.Edges()),
	}
}

// add adds the traffic between v and every other node of others (both
// directions) and returns the new maximum edge load.
func (s *loadState) add(v torus.Node, others []torus.Node) float64 {
	s.pairs(v, others, 1)
	return s.max()
}

// remove subtracts the traffic between v and every other node of others:
// the same kernel as add at weight −1.
func (s *loadState) remove(v torus.Node, others []torus.Node) {
	s.pairs(v, others, -1)
}

// pairs runs the pair kernel at weight w for (u, v) and (v, u) over every
// u ≠ v in others.
func (s *loadState) pairs(v torus.Node, others []torus.Node, w float64) {
	for _, u := range others {
		if u == v {
			continue
		}
		s.alg.AccumulatePair(s.t, u, v, w, s.loads, s.sc)
		s.alg.AccumulatePair(s.t, v, u, w, s.loads, s.sc)
	}
}

// checkpoint saves a copy of the loads and returns the stack offset that
// revert takes back to.
func (s *loadState) checkpoint() int {
	cp := len(s.saved)
	s.saved = append(s.saved, s.loads...)
	return cp
}

// revert restores the loads checkpoint cp saved, bit for bit, and drops
// that checkpoint and every one opened after it.
func (s *loadState) revert(cp int) {
	copy(s.loads, s.saved[cp:])
	s.saved = s.saved[:cp]
}

// commit keeps every load as it stands and drops every checkpoint, so no
// open checkpoint can be reverted afterwards.
func (s *loadState) commit() {
	s.saved = s.saved[:0]
}

// max returns the largest edge load: one O(edges) scan.
func (s *loadState) max() float64 {
	m := 0.0
	for _, l := range s.loads {
		if l > m {
			m = l
		}
	}
	return m
}
