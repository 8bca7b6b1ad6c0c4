package load

import (
	"cmp"
	"math"
	"slices"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// Cost-model dispatch. Every computed engine's work is known before it
// runs, as a formula in (k, d, |P|) and, for the symmetry engine, the
// orbit count of the placement's translation stabilizer:
//
//   - generic: |P|² pair kernels (pairNs);
//   - symmetry: orbits·|P| pair kernels and orbits scans of a base vector,
//     then for each of the |P| sources a kᵈ node-translation table and
//     the orbit's base nonzeros (nnz) translated through it;
//   - ring-flow: (sweeps+2)·d·kᵈ cells, where a ring of k cells is swept
//     once per class it carries (one for ODR, up to 3^{d−1} for UDR) plus
//     its fixed per-ring work, and one marginal-table entry per processor,
//     dimension and table (2 for ODR, 2^{d−1} for UDR).
//
// Every engine also makes one summary pass over the 2d·kᵈ edges. The
// constants price each unit in nanoseconds. They were fitted once, by
// least squares on relative error and then rounded, to one-worker timings
// of each engine over the grid of BenchmarkDispatchTable (which
// re-measures it and prints each engine's measured time against its
// prediction) on a 2-CPU Intel Xeon with go1.24; the two setup terms come
// from T²₃…T³₄, where they dominate.
//
// Under ODR, ODR-multi, UDR and UDR-multi, compute runs the engine with
// the smallest prediction among its candidates. The symmetry engine is a
// candidate only under UDR and UDR-multi: under ODR and ODR-multi
// ring-flow beats it on every placement measured, or trails it by under a
// microsecond (single-orbit T²₈ and T²₁₂), so those go straight to
// ring-flow without a stabilizer search. Under
// UDR its price falls with its orbit count, and the stabilizer that yields
// the count is a search of its own (cached with the placement, and not
// priced here), so it is searched only when even a single orbit would beat
// the cheaper of ring-flow and the pair loop. Over BenchmarkDispatchTable's
// grid that happens only for the linear placements the model then gives to
// symmetry, UDR on T²₈…T²₂₄, T³₆ and T⁴₄: translating |P| node tables
// alone costs more than sweeping every ring once anywhere else.
// FAR and ODROrder, which ring-flow does not model, keep the symmetry
// engine whenever the stabilizer is non-trivial: it walks orbits·|P|
// pairs against the pair loop's |P|², and the two differ by its setup of
// about a microsecond only where both take a few. Their predictions are
// still made, and reported.
const (
	nsPerODRStep    = 17   // ODR family pair kernel: one hop, or one dimension's setup
	nsPerUDRStep    = 13   // UDR pair kernel: one hop of a segment, or one coordinate of its start
	nsPerFARState   = 8.5  // FAR pair kernel: one dimension of one lattice state
	nsPerScan       = 1    // symmetry: one base-vector edge scanned for nonzeros
	nsPerNonzero    = 0.5  // symmetry: one base nonzero translated to a source
	nsPerNode       = 1.5  // symmetry: one entry of a node-translation table
	nsSymmetrySetup = 1100 // symmetry: the orbit partition and the workspace
	nsRingFlowSetup = 1200 // ring-flow: its tables' layout and the workspace
	nsPerCell       = 7    // ring-flow: one cell of one ring pass
	nsPerMarginal   = 8    // ring-flow: one marginal-table entry
	nsPerEdge       = 3    // every engine: one edge of the summary pass
)

// plan is compute's choice for one input: the engine, its predicted cost
// in nanoseconds, and what the engine needs (the ring family for
// ring-flow, the stabilizer for symmetry).
type plan struct {
	engine string
	ns     float64
	fam    ringFamily
	stab   [][]int
}

// candidates appends to dst, and returns, every engine compute may run for
// p under alg in mode with its price, in the order generic, ring-flow,
// symmetry. FastPathOff offers only the pair loop; FastPathForce offers
// the symmetry engine whenever it is sound and never ring-flow. This is
// the one place that knows which engine applies to which input.
func candidates(dst []plan, p *placement.Placement, alg routing.Algorithm, mode FastPathMode) []plan {
	t, n := p.Torus(), p.Size()
	out := append(dst, plan{engine: EngineGeneric, ns: genericCost(alg, t, n)})
	if mode == FastPathOff || n < 2 {
		return out
	}
	symmetric := routing.IsTranslationEquivariant(alg)
	fam, costed := ringFamilyOf(alg)
	if mode == FastPathForce {
		costed = false
	} else if costed && fam.exact(t, n) {
		out = append(out, plan{engine: EngineRingFlow, ns: ringFlowCost(fam, t, n), fam: fam})
	}
	if symmetric && (!costed || !fam.ordered && symmetryCost(alg, t, n, 1) < slices.MinFunc(out, cheaper).ns) {
		if stab := p.TranslationStabilizer(); len(stab) > 1 || mode == FastPathForce {
			out = append(out, plan{engine: EngineSymmetry, ns: symmetryCost(alg, t, n, n/len(stab)), stab: stab})
		}
	}
	return out
}

// choose picks the engine compute runs for p under alg in mode. The
// candidates live in an array on its stack, so a choice allocates nothing.
func choose(p *placement.Placement, alg routing.Algorithm, mode FastPathMode) plan {
	var buf [3]plan
	return pick(alg, mode, candidates(buf[:0], p, alg, mode))
}

// pick chooses among cands: under FastPathAuto and a routing ring-flow
// models, the cheapest; otherwise the last, which is the symmetry engine
// wherever it is a candidate and the pair loop elsewhere.
func pick(alg routing.Algorithm, mode FastPathMode, cands []plan) plan {
	if _, costed := ringFamilyOf(alg); costed && mode == FastPathAuto {
		return slices.MinFunc(cands, cheaper)
	}
	return cands[len(cands)-1]
}

// cheaper orders plans by predicted cost.
func cheaper(x, y plan) int { return cmp.Compare(x.ns, y.ns) }

// genericCost predicts the pair loop: every ordered pair runs its kernel.
func genericCost(alg routing.Algorithm, t *torus.Torus, n int) float64 {
	pairs := float64(n) * float64(n-1)
	return pairs*pairNs(alg, t) + nsPerEdge*float64(t.Edges())
}

// symmetryCost predicts the symmetry engine with the given orbit count.
func symmetryCost(alg routing.Algorithm, t *torus.Torus, n, orbits int) float64 {
	edges := float64(t.Edges())
	bases := float64(orbits) * (float64(n-1)*pairNs(alg, t) + nsPerScan*edges)
	// A base vector's nonzeros: the edges the paths to n−1 destinations
	// cover, as if each of their pathEdges landed uniformly at random.
	nnz := edges * -math.Expm1(-float64(n-1)*pathEdges(alg, t)/edges)
	scatter := float64(n) * (nsPerNonzero*nnz + nsPerNode*float64(t.Nodes()))
	return nsSymmetrySetup + bases + scatter + nsPerEdge*edges
}

// ringFlowCost predicts the ring-flow engine for family f on n processors.
func ringFlowCost(f ringFamily, t *torus.Torus, n int) float64 {
	d := t.D()
	cells := (f.sweeps(t.K(), d, n) + 2) * float64(d*t.Nodes())
	tables := 2.0
	if !f.ordered {
		tables = math.Exp2(float64(d - 1))
	}
	marginals := tables * float64(d*n)
	return nsRingFlowSetup + nsPerCell*cells + nsPerMarginal*marginals + nsPerEdge*float64(t.Edges())
}

// sweeps is the expected number of ring passes per ring: one for ODR; for
// UDR, one per class whose A row is not empty. A class's A row counts the
// processors agreeing with the ring exactly on a of the other d−1
// dimensions; n processors spread evenly put n·k^{−a}·(1−1/k)^{d−1−a} in
// it, and the sweep skips the class when it holds none. The 2^a classes
// sharing that row sum their B rows into one pass, but each adds a row of
// work, so a class counts whole.
func (f ringFamily) sweeps(k, d, n int) float64 {
	if f.ordered {
		return 1
	}
	kf, out := float64(k), 0.0
	for a, ways := 0, 1.0; a < d; a++ {
		filled := math.Min(1, float64(n)*math.Pow(kf, float64(-a))*math.Pow(1-1/kf, float64(d-1-a)))
		out += ways * math.Exp2(float64(a)) * filled
		ways = ways * float64(d-1-a) / float64(a+1)
	}
	return out
}

// meanDist is the mean cyclic distance between two uniform coordinates of
// a ring of k nodes: k/4 for even k, (k²−1)/4k for odd.
func meanDist(k int) float64 {
	kf := float64(k)
	if k%2 == 0 {
		return kf / 4
	}
	return (kf*kf - 1) / (4 * kf)
}

// pairNs predicts one pair kernel on t, for a pair differing in every
// dimension by meanDist: the dimension-ordered routings set up and walk d
// corrections; UDR walks 2^{d−1}·d segments, each decoding its start node;
// FAR builds and walks a lattice of (meanDist+1)^d states.
func pairNs(alg routing.Algorithm, t *torus.Torus) float64 {
	d, m := float64(t.D()), meanDist(t.K())
	switch alg.(type) {
	case routing.UDR, routing.UDRMulti:
		return nsPerUDRStep * math.Exp2(d-1) * d * (m + d)
	case routing.FAR:
		return nsPerFARState * 2 * d * math.Pow(m+1, d)
	}
	return nsPerODRStep * d * (m + 1)
}

// pathEdges is the mean number of distinct edges one pair's path set
// covers: d corrections for the dimension-ordered routings, 2^{d−1}·d
// segments for UDR, and the lattice's edges for FAR.
func pathEdges(alg routing.Algorithm, t *torus.Torus) float64 {
	d, m := float64(t.D()), meanDist(t.K())
	switch alg.(type) {
	case routing.UDR, routing.UDRMulti:
		return math.Exp2(d-1) * d * m
	case routing.FAR:
		return d * math.Pow(m+1, d)
	}
	return d * m
}

// Prediction is the cost model's price, in microseconds, of one engine
// that applies to an input.
type Prediction struct {
	Engine string
	Micros float64
}

// Predict prices every engine compute considers for p under alg with
// FastPathAuto (see candidates) and names the one it runs when the
// analytic tier does not answer.
func Predict(p *placement.Placement, alg routing.Algorithm) (chosen string, preds []Prediction) {
	cands := candidates(nil, p, alg, FastPathAuto)
	for _, c := range cands {
		preds = append(preds, Prediction{c.engine, c.ns / 1e3})
	}
	return pick(alg, FastPathAuto, cands).engine, preds
}
