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
// When the placement is a union of cosets of a translation group G and
// the routing algorithm is translation-equivariant, the per-edge load
// pattern contributed by source p ⊕ g is exactly the pattern of source p
// with every edge translated by g. Summing one representative source per
// G-orbit into a base vector B, the load of edge (u, slot) is then
// Σ_{v ∈ u+G} B(v, slot): the answer is G-periodic, and one fold by
// cosets computes it. Instead of walking routes for all |P|·(|P|−1)
// ordered pairs, the engine
//
//  1. reads every node's coset label off the group the placement's
//     builder recorded (placement.Cosets: the residue Σ c_j·u_j mod k),
//     and picks the orbit representatives: the first processor of each
//     coset;
//  2. walks routes for those representatives against all destinations
//     into B (O(|P|/|G| · |P| · d · k) routing work);
//  3. folds B into one cosets × 2d vector and reads each edge back
//     through its source's coset label (O(|E|), no routing).
//
// For a linear placement |G| = k^{d−1} = |P|, so step 2 collapses to a
// single source: a ~k^{d−1}× reduction in routing walks. Every step is
// serial with a fixed order, so the answer does not depend on the worker
// count. Dispatch weighs it only for the routings ring-flow does not
// model, which is FAR, and only on a placement whose builder recorded a
// non-trivial group.

// computeSymmetry runs the fast path over the cosets of the translation
// group p's builder recorded, for a translation-equivariant algorithm
// and at least two processors. Without keep the Result carries no Loads
// vector.
func computeSymmetry(ctx context.Context, p *placement.Placement, alg routing.Algorithm, keep bool) Result {
	t := p.Torus()
	ws := getWorkspace()

	// Coset labels. A coset holding a processor holds only processors, so
	// its first processor in index order is its first node, and its
	// orbit's representative.
	label := zeroed(ws.label, t.Nodes())
	cosets := p.Cosets(label)
	seen := zeroed(ws.seen, cosets)
	reps := ws.reps[:0]
	for _, u := range p.Nodes() {
		if c := label[u]; !seen[c] {
			seen[c] = true
			reps = append(reps, u)
		}
	}
	ws.label, ws.seen, ws.reps = label, seen, reps

	// Base vector: every representative against every destination, with
	// a fixed destination order.
	base := zeroed(ws.base, t.Edges())
	func() {
		_, bsp := obs.Start(ctx, "load.bases")
		defer bsp.End()
		bsp.SetAttrInt("orbits", int64(len(reps)))
		bsp.SetAttrInt("stabilizer", int64(p.GroupOrder()))
		withEngineLabel(ctx, EngineSymmetry, func() {
			sc := ws.pairScratch(t, 1)[0]
			for _, rep := range reps {
				for _, dst := range p.Nodes() {
					if dst != rep {
						alg.AccumulatePair(t, rep, dst, 1, base, sc)
					}
				}
			}
		})
	}()
	ws.base = base

	// Fold: sum B over each coset, slot by slot, then give every edge its
	// source's coset sum. Without keep the answer overwrites B, which the
	// fold has finished reading.
	_, msp := obs.Start(ctx, "load.merge")
	td2 := 2 * t.D()
	fold := zeroed(ws.fold, cosets*td2)
	for u, c := range label {
		sums, row := fold[int(c)*td2:][:td2], base[u*td2:][:td2]
		for s, w := range row {
			sums[s] += w
		}
	}
	loads := base
	if keep {
		loads = make([]float64, len(base))
	}
	for u, c := range label {
		copy(loads[u*td2:][:td2], fold[int(c)*td2:][:td2])
	}
	ws.fold = fold
	res := newResult(t, p, alg.Name(), loads)
	msp.End()
	res.Engine = EngineSymmetry
	if !keep {
		res.Loads = nil
	}
	ws.release()
	return res
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
