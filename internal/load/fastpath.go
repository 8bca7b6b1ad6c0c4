package load

import (
	"context"
	"fmt"
	"math"

	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
)

// The translation-symmetry fast path (Theorem 2's mechanism, generalized).
//
// When the placement is closed under a translation subgroup G and the
// routing algorithm is translation-equivariant, the per-edge load pattern
// contributed by source p ⊕ t is exactly the pattern of source p with every
// edge index translated by t. So instead of walking routes for all
// |P|·(|P|−1) ordered pairs, the engine
//
//  1. partitions the sources into G-orbits,
//  2. walks routes for ONE canonical source per orbit against all
//     destinations (O(|P|/|G| · |P| · d · k) routing work), and
//  3. replicates each orbit's base pattern to its other members by
//     translating edge indices through a precomputed node-translation
//     table (O(|P|·|E|) index arithmetic, no routing).
//
// For a linear placement |G| = k^{d−1} = |P|, so step 2 collapses to a
// single source: a ~k^{d−1}× reduction in routing walks.

// nnzEntry is one nonzero of an orbit's base load vector with the edge
// index pre-split into source node and (dimension, direction) slot, so the
// scatter loop translates with one table lookup and no division.
type nnzEntry struct {
	u    int32 // edge source node
	slot int32 // edge index mod 2d: dimension and direction
	w    float64
}

// scatterJob replicates one orbit's base pattern to one source.
type scatterJob struct {
	orbit  int // index of the orbit's representative
	offset int // index into the stabilizer, with src = rep ⊕ offset
}

// computeSymmetry runs the fast path over the orbits of stab, the
// placement's translation stabilizer, for a translation-equivariant
// algorithm and at least two processors. Without keep the Result carries
// no Loads vector.
func computeSymmetry(ctx context.Context, p *placement.Placement, alg routing.Algorithm, stab [][]int, workers int, keep bool) *Result {
	t := p.Torus()
	procs := p.Nodes()
	ws := getWorkspace()

	// Orbit partition. Translations act freely on nodes, so each orbit has
	// exactly |stab| distinct members, all inside P by closure; iterating
	// processors in index order and stabilizers in their fixed order makes
	// reps and jobs deterministic.
	seen := zeroed(ws.seen, t.Nodes())
	reps, jobs := ws.reps[:0], ws.jobs[:0]
	for _, src := range procs {
		if seen[src] {
			continue
		}
		orbit := len(reps)
		reps = append(reps, src)
		for oi, off := range stab {
			seen[t.Translate(src, off)] = true
			jobs = append(jobs, scatterJob{orbit: orbit, offset: oi})
		}
	}
	ws.seen, ws.reps, ws.jobs = seen, reps, jobs

	// Base vectors: one canonical source per orbit against every
	// destination, serial with a fixed destination order so the summation
	// order never depends on the worker count. Every orbit's nonzeros land
	// in one flat list; extracting them also clears the base buffer for
	// the next orbit.
	td2 := 2 * t.D()
	baseBuf := zeroed(ws.baseBuf, t.Edges())
	nnz, starts := ws.nnz[:0], append(ws.starts[:0], 0)
	func() {
		_, bsp := obs.Start(ctx, "load.bases")
		defer bsp.End()
		bsp.SetAttrInt("orbits", int64(len(reps)))
		bsp.SetAttrInt("stabilizer", int64(len(stab)))
		withEngineLabel(ctx, EngineSymmetry, func() {
			sc := ws.pairScratch(t, 1)[0]
			for _, rep := range reps {
				for _, dst := range procs {
					if dst != rep {
						alg.AccumulatePair(t, rep, dst, 1, baseBuf, sc)
					}
				}
				for e, w := range baseBuf {
					if w != 0 {
						nnz = append(nnz, nnzEntry{u: int32(e / td2), slot: int32(e % td2), w: w})
						baseBuf[e] = 0
					}
				}
				starts = append(starts, len(nnz))
			}
		})
	}()
	ws.baseBuf, ws.nnz, ws.starts = baseBuf, nnz, starts

	// Replication: every job translates its orbit's nonzeros through a
	// per-worker node-translation table, striped and merged like the pair
	// engines, so determinism semantics match.
	workers = effectiveWorkers(workers, len(jobs))
	partials := ws.accumulators(workers, t.Edges(), keep)
	tables := ws.translationTables(t, workers)
	func() {
		_, ssp := obs.Start(ctx, "load.scatter")
		defer ssp.End()
		ssp.SetAttrInt("jobs", int64(len(jobs)))
		withEngineLabel(ctx, EngineSymmetry, func() {
			stripe(workers, len(jobs), func(w, ji int) {
				job, local, table := jobs[ji], partials[w], tables[w]
				t.TranslationTableInto(stab[job.offset], table)
				for _, ent := range nnz[starts[job.orbit]:starts[job.orbit+1]] {
					local[int(table[ent.u])*td2+int(ent.slot)] += ent.w
				}
			})
		})
	}()

	res := engineResult(ctx, p, alg, EngineSymmetry, partials, keep)
	ws.release()
	return res
}

// crossCheckTolerance bounds the relative divergence the two engines may
// accumulate from their different floating-point summation orders.
const crossCheckTolerance = 1e-9

// crossCheck panics if a symmetry or ring-flow result diverges from the
// generic reference beyond summation-order tolerance. A failure means a
// soundness bug (a placement or algorithm wrongly admitted to a fast
// path), which must never be papered over.
func crossCheck(fast, generic *Result) {
	for e := range fast.Loads {
		a, b := fast.Loads[e], generic.Loads[e]
		scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
		if math.Abs(a-b) > crossCheckTolerance*scale {
			panic(fmt.Sprintf(
				"load: %s engine diverges from generic engine on %s with %s: edge %d has %g vs %g",
				fast.Engine, fast.Placement, fast.Algorithm, e, a, b))
		}
	}
}

// MaxEngineDivergence computes the maximum absolute per-edge difference
// between two results on the same torus — the cross-check statistic the E31
// experiment reports. It panics if the edge sets differ in size.
func MaxEngineDivergence(a, b *Result) float64 {
	if len(a.Loads) != len(b.Loads) {
		panic(fmt.Sprintf("load: comparing results with %d and %d edges", len(a.Loads), len(b.Loads)))
	}
	worst := 0.0
	for e := range a.Loads {
		if d := math.Abs(a.Loads[e] - b.Loads[e]); d > worst {
			worst = d
		}
	}
	return worst
}
