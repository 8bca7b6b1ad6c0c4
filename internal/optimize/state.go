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

// edgeVal is one undo-stack entry: an edge's load before the first write
// to it since the latest checkpoint.
type edgeVal struct {
	e   torus.Edge
	old float64
}

// loadState holds the per-edge complete-exchange loads of a node set and
// updates them incrementally (Definition 4): adding or removing one node
// changes only the 2(n−1) ordered pairs that touch it, so either costs
// 2(n−1) AccumulatePair calls instead of a full O(n²) recompute. Every
// write since the latest checkpoint is undone exactly by revert, which
// restores first-touch snapshots rather than subtracting, so backtracking
// never accumulates float drift. Checkpoints nest, and after the first
// growth of the undo stack no operation allocates. The state is used by
// one goroutine.
type loadState struct {
	t   *torus.Torus
	alg routing.Algorithm

	loads []float64 // per-edge load of the current node set
	mark  []int64   // epoch that last snapshotted each edge
	epoch int64     // current epoch; checkpoint and revert bump it
	undo  []edgeVal // first-touch snapshots, popped back by revert

	sign float64                   // +1 while adding a node, −1 while removing one
	hi   float64                   // largest load written by the current add
	acc  func(torus.Edge, float64) // the one callback handed to AccumulatePair
}

// newLoadState returns the empty-set state for alg on t.
func newLoadState(t *torus.Torus, alg routing.Algorithm) *loadState {
	s := &loadState{
		t:     t,
		alg:   alg,
		loads: make([]float64, t.Edges()),
		mark:  make([]int64, t.Edges()),
		// Within one epoch every edge is snapshotted at most once, so a
		// single checkpoint level never outgrows this capacity.
		undo: make([]edgeVal, 0, t.Edges()),
	}
	s.acc = func(e torus.Edge, w float64) {
		if s.mark[e] != s.epoch {
			s.mark[e] = s.epoch
			s.undo = append(s.undo, edgeVal{e, s.loads[e]})
		}
		s.loads[e] += s.sign * w
		if s.loads[e] > s.hi {
			s.hi = s.loads[e]
		}
	}
	return s
}

// add adds the traffic between v and every other node of others (both
// directions) and returns the largest load it wrote, or 0 when it wrote
// none. Since loads only grow under add, max(previous max, add's return)
// is the new maximum.
func (s *loadState) add(v torus.Node, others []torus.Node) float64 {
	s.hi = 0
	s.pairs(v, others, 1)
	return s.hi
}

// remove subtracts the traffic between v and every other node of others:
// the same kernel as add with the weight negated.
func (s *loadState) remove(v torus.Node, others []torus.Node) {
	s.pairs(v, others, -1)
}

// pairs runs the pair kernel for (u, v) and (v, u) over every u ≠ v in
// others, scaling each weight by sign.
func (s *loadState) pairs(v torus.Node, others []torus.Node, sign float64) {
	s.sign = sign
	for _, u := range others {
		if u == v {
			continue
		}
		s.alg.AccumulatePair(s.t, u, v, s.acc)
		s.alg.AccumulatePair(s.t, v, u, s.acc)
	}
}

// checkpoint opens a new epoch and returns the undo index that revert
// takes back to. Revert opens a new epoch too, so a write after it is
// snapshotted afresh for an enclosing checkpoint.
func (s *loadState) checkpoint() int {
	s.epoch++
	return len(s.undo)
}

// revert restores every load written since checkpoint cp returned, bit
// for bit, newest snapshot first so nested epochs unwind in order.
func (s *loadState) revert(cp int) {
	for i := len(s.undo) - 1; i >= cp; i-- {
		s.loads[s.undo[i].e] = s.undo[i].old
	}
	s.undo = s.undo[:cp]
	s.epoch++
}

// commit keeps every load as it stands and drops every snapshot, so no
// open checkpoint can be reverted afterwards.
func (s *loadState) commit() {
	s.undo = s.undo[:0]
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
