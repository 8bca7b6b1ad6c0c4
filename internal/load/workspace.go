package load

import (
	"sync"

	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// workspace is the scratch one engine compute borrows from workspaces and
// returns after its merge: the generic pair loop, the symmetry engine's
// bases and scatter, the ring-flow engine's marginals and sweeps,
// ComputePattern and ComputeValiant all draw from it.
// Every buffer only grows, and every one is resized and cleared when it is
// handed out, so a workspace last used on a larger torus, another
// dimension or more workers carries nothing into the next compute. The one
// vector a compute returns, worker 0's accumulator, is allocated fresh and
// never enters the workspace; a compute that keeps no vector (EMaxCtx)
// takes worker 0's accumulator from the workspace too. A compute that
// panics never returns its workspace at all.
type workspace struct {
	// parts is the accumulator list handed to the stripe: parts[0] is the
	// compute's fresh answer vector when it keeps one, and every other
	// entry aliases pooled.
	parts  [][]float64
	pooled [][]float64 // pooled[w] is worker w's accumulator

	scratch  []*routing.PairScratch // one per worker, made for scratchD
	scratchD int

	// The symmetry engine's orbit partition, bases and scatter tables.
	seen    []bool
	reps    []torus.Node
	jobs    []scatterJob
	baseBuf []float64
	nnz     []nnzEntry // every orbit's nonzeros, orbit after orbit
	starts  []int      // orbit o's nonzeros are nnz[starts[o]:starts[o+1]]
	tables  [][]torus.Node

	rf ringFlow // the ring-flow engine's marginals and per-worker sweeps
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

func getWorkspace() *workspace { return workspaces.Get().(*workspace) }

// release forgets the returned answer vector and puts ws back in the pool.
func (ws *workspace) release() {
	clear(ws.parts)
	ws.parts = ws.parts[:0]
	workspaces.Put(ws)
}

// accumulators returns one zeroed per-edge accumulator per worker, and
// mergePartials folds them all into the first. With keep, the first is
// freshly allocated and becomes the Result's Loads; without, it is the
// workspace's like the others, and must be read before release.
func (ws *workspace) accumulators(workers, edges int, keep bool) [][]float64 {
	ws.pooled = grown(ws.pooled, workers)
	ws.parts = ws.parts[:0]
	for w := range ws.pooled {
		if w == 0 && keep {
			ws.parts = append(ws.parts, make([]float64, edges))
			continue
		}
		ws.pooled[w] = zeroed(ws.pooled[w], edges)
		ws.parts = append(ws.parts, ws.pooled[w])
	}
	return ws.parts
}

// pairScratch returns one pair scratch per worker, valid for t. A scratch
// depends only on the dimension, so they are re-made only when d changes.
func (ws *workspace) pairScratch(t *torus.Torus, workers int) []*routing.PairScratch {
	if ws.scratchD != t.D() {
		ws.scratch, ws.scratchD = ws.scratch[:0], t.D()
	}
	for len(ws.scratch) < workers {
		ws.scratch = append(ws.scratch, routing.NewPairScratch(t))
	}
	return ws.scratch[:workers]
}

// translationTables returns one node-translation table per worker, each
// of length t.Nodes().
func (ws *workspace) translationTables(t *torus.Torus, workers int) [][]torus.Node {
	ws.tables = grown(ws.tables, workers)
	for w := range ws.tables {
		ws.tables[w] = zeroed(ws.tables[w], t.Nodes())
	}
	return ws.tables
}

// zeroed returns buf resized to n and cleared, reallocating only when its
// capacity falls short.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// grown returns bufs resized to n, keeping the buffers it already holds
// (including those beyond the old length) for reuse.
func grown[T any](bufs [][]T, n int) [][]T {
	if cap(bufs) < n {
		bufs = append(bufs[:cap(bufs)], make([][]T, n-cap(bufs))...)
	}
	return bufs[:n]
}
