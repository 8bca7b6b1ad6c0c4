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
// orbit count |P|/|G| of the translation group G the placement's builder
// records:
//
//   - generic: |P|² pair kernels (pairNs);
//   - symmetry: a coset label for each of the kᵈ nodes, orbits·|P| pair
//     kernels into one base vector, and one fold of that vector by cosets,
//     read back edge by edge;
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
// from T²₃…T³₄, where they dominate. The symmetry engine's labelling,
// fold and setup constants were refitted the same way, on the same kind
// of host, when it came to fold by cosets, and its labelling and FAR's
// state constant again when the labels came to be read off the recorded
// group.
//
// Each input has one rule: compute runs the candidate with the smallest
// prediction. The pair loop is always a candidate. Ring-flow is one for
// the five dimension-ordered routings (ODR, ODR-multi, ODROrder, UDR and
// UDR-multi) wherever its integer sums stay exact. The symmetry engine is
// one only for the translation-equivariant routings ring-flow does not
// model, which today is FAR alone, and only on a placement whose builder
// records a non-trivial group (placement.GroupOrder: the linear family,
// layer clusters and Full): it walks orbits·|P| pairs against the pair
// loop's |P|². Every other placement (random, explicit, placement.New)
// runs FAR on the pair loop, whatever translations happen to fix it. The
// order is read off the spec as off the built placement, so Cost is the
// price of the engine compute runs. Under ODR and UDR a single orbit (a
// linear placement) would run on the symmetry engine up to 1.8× faster
// than on ring-flow on T², and 2.4–3.6× on T⁴₄; ring-flow serves it
// anyway, so that the symmetry engine stays FAR's alone.
const (
	nsPerODRStep    = 17   // ODR family pair kernel: one hop, or one dimension's setup
	nsPerUDRStep    = 13   // UDR pair kernel: one hop of a segment, or one coordinate of its start
	nsPerFARState   = 11   // FAR pair kernel: one dimension of one lattice state
	nsPerNode       = 8    // symmetry: one node's coset label
	nsPerFold       = 3    // symmetry: one edge folded into its coset and read back
	nsSymmetrySetup = 400  // symmetry: the workspace and its buffers
	nsRingFlowSetup = 1200 // ring-flow: its tables' layout and the workspace
	nsPerCell       = 7    // ring-flow: one cell of one ring pass
	nsPerMarginal   = 8    // ring-flow: one marginal-table entry
	nsPerEdge       = 3    // every engine: one edge of the summary pass
)

// plan is compute's choice for one input: the engine, its predicted cost
// in nanoseconds, and the ring family ring-flow needs.
type plan struct {
	engine string
	ns     float64
	fam    ringFamily
}

// priced appends to dst, and returns, every engine compute may run for n
// processors on t under alg in mode, with its price, in the order
// generic, ring-flow, symmetry: the pair loop always; under FastPathAuto,
// ring-flow wherever its integer sums stay exact, and the symmetry engine
// for the translation-equivariant routings ring-flow does not model where
// order, that of the placement's recorded translation group, exceeds 1.
// It is the one place that knows which engine applies to which input.
func priced(dst []plan, alg routing.Algorithm, t *torus.Torus, n, order int, mode FastPathMode) []plan {
	out := append(dst, plan{engine: EngineGeneric, ns: genericCost(alg, t, n)})
	if mode != FastPathAuto || n < 2 {
		return out
	}
	fam, modelled := ringFamilyOf(alg, t.D())
	if modelled && fam.exact(t, n) {
		out = append(out, plan{engine: EngineRingFlow, ns: ringFlowCost(fam, t, n), fam: fam})
	}
	if order > 1 && !modelled && routing.IsTranslationEquivariant(alg) {
		out = append(out, plan{engine: EngineSymmetry, ns: symmetryCost(alg, t, n, n/order)})
	}
	return out
}

// Cost is the cost model's price, in nanoseconds, of computing the loads
// of spec's placement on t under alg in mode, known before it is built, or
// the error spec.Size returns: the price of the engine compute runs. The
// spec gives the group order its builder records (placement.GroupOrder),
// so Cost weighs the engines choose weighs at the same prices.
func Cost(alg routing.Algorithm, t *torus.Torus, spec placement.Spec, mode FastPathMode) (float64, error) {
	n, err := spec.Size(t)
	if err != nil {
		return 0, err
	}
	var buf [3]plan
	return slices.MinFunc(priced(buf[:0], alg, t, n, placement.GroupOrder(spec, t), mode), cheaper).ns, nil
}

// choose picks the engine compute runs for p under alg in mode: the
// cheapest candidate. The candidates live in an array on its stack, so a
// choice allocates nothing.
func choose(p *placement.Placement, alg routing.Algorithm, mode FastPathMode) plan {
	var buf [3]plan
	return slices.MinFunc(priced(buf[:0], alg, p.Torus(), p.Size(), p.GroupOrder(), mode), cheaper)
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
	bases := float64(orbits) * float64(n-1) * pairNs(alg, t)
	return nsSymmetrySetup + nsPerNode*float64(t.Nodes()) + bases + (nsPerFold+nsPerEdge)*edges
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

// Prediction is the cost model's price, in microseconds, of one engine
// that applies to an input.
type Prediction struct {
	Engine string
	Micros float64
}

// Predict prices every engine compute considers for p under alg with
// FastPathAuto (see priced) and names the one it runs: the cheapest.
func Predict(p *placement.Placement, alg routing.Algorithm) (chosen string, preds []Prediction) {
	cands := priced(nil, alg, p.Torus(), p.Size(), p.GroupOrder(), FastPathAuto)
	for _, c := range cands {
		preds = append(preds, Prediction{c.engine, c.ns / 1e3})
	}
	return slices.MinFunc(cands, cheaper).engine, preds
}
