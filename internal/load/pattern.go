package load

import (
	"fmt"
	"math/rand"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// Demand is one traffic requirement: Weight messages from Src to Dst per
// round. Complete exchange is the all-pairs unit-weight special case; the
// paper's introduction motivates placements with matrix transposition,
// FFT-style exchanges, and distributed table lookup, all of which are
// Patterns here.
type Demand struct {
	Src, Dst torus.Node
	Weight   float64
}

// Pattern generates a traffic matrix over a placement's processors.
type Pattern interface {
	Name() string
	// Demands lists the traffic pairs; implementations must only use
	// processors of the placement as endpoints and must omit self-pairs.
	Demands(p *placement.Placement) []Demand
}

// CompleteExchange is all-to-all personalized communication (§2.1): every
// ordered processor pair exchanges one message.
type CompleteExchange struct{}

// Name implements Pattern.
func (CompleteExchange) Name() string { return "complete-exchange" }

// Demands implements Pattern.
func (CompleteExchange) Demands(p *placement.Placement) []Demand {
	out := make([]Demand, 0, p.Pairs())
	for _, src := range p.Nodes() {
		for _, dst := range p.Nodes() {
			if dst != src {
				out = append(out, Demand{Src: src, Dst: dst, Weight: 1})
			}
		}
	}
	return out
}

// Transpose sends each processor's data to its coordinate-reversed partner
// (a_1, …, a_d) → (a_d, …, a_1) — matrix transposition for d = 2. Pairs
// whose partner carries no processor, or is the processor itself, send
// nothing.
type Transpose struct{}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Demands implements Pattern.
func (Transpose) Demands(p *placement.Placement) []Demand {
	t := p.Torus()
	var out []Demand
	coords := make([]int, t.D())
	rev := make([]int, t.D())
	for _, src := range p.Nodes() {
		t.CoordsInto(src, coords)
		for j := range coords {
			rev[t.D()-1-j] = coords[j]
		}
		dst := t.NodeAt(rev)
		if dst != src && p.Contains(dst) {
			out = append(out, Demand{Src: src, Dst: dst, Weight: 1})
		}
	}
	return out
}

// Shift sends each processor to the processor at a fixed coordinate offset
// (a cyclic shift / neighbor exchange, the h = 1 relation of BSP practice).
// Offsets that land on router-only nodes produce no demand.
type Shift struct {
	Offset []int
}

// Name implements Pattern.
func (s Shift) Name() string { return fmt.Sprintf("shift%v", s.Offset) }

// Demands implements Pattern.
func (s Shift) Demands(p *placement.Placement) []Demand {
	t := p.Torus()
	if len(s.Offset) != t.D() {
		panic("load: shift offset arity mismatch")
	}
	var out []Demand
	for _, src := range p.Nodes() {
		dst := t.Translate(src, s.Offset)
		if dst != src && p.Contains(dst) {
			out = append(out, Demand{Src: src, Dst: dst, Weight: 1})
		}
	}
	return out
}

// HotSpot sends one message from every processor to a single processor
// (index HotIndex into the placement's node list) — the worst-case funnel,
// bounded below by (|P|−1)/2d on any routing.
type HotSpot struct {
	HotIndex int
}

// Name implements Pattern.
func (h HotSpot) Name() string { return fmt.Sprintf("hotspot(%d)", h.HotIndex) }

// Demands implements Pattern.
func (h HotSpot) Demands(p *placement.Placement) []Demand {
	nodes := p.Nodes()
	hot := nodes[h.HotIndex%len(nodes)]
	var out []Demand
	for _, src := range nodes {
		if src != hot {
			out = append(out, Demand{Src: src, Dst: hot, Weight: 1})
		}
	}
	return out
}

// RandomPairs draws Count ordered pairs uniformly (with replacement,
// excluding self-pairs) — an irregular traffic sample.
type RandomPairs struct {
	Count int
	Seed  int64
}

// Name implements Pattern.
func (r RandomPairs) Name() string { return fmt.Sprintf("random-pairs(%d)", r.Count) }

// Demands implements Pattern.
func (r RandomPairs) Demands(p *placement.Placement) []Demand {
	rng := rand.New(rand.NewSource(r.Seed))
	nodes := p.Nodes()
	out := make([]Demand, 0, r.Count)
	for len(out) < r.Count && len(nodes) > 1 {
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		if src != dst {
			out = append(out, Demand{Src: src, Dst: dst, Weight: 1})
		}
	}
	return out
}

// ComputePattern evaluates the exact expected per-edge load of an arbitrary
// traffic pattern under the routing algorithm — the Definition 4 engine
// generalized beyond complete exchange. Compute(p, alg, opts) is exactly
// ComputePattern(p, CompleteExchange{}, alg, opts).
func ComputePattern(p *placement.Placement, pat Pattern, alg routing.Algorithm, opts Options) *Result {
	t := p.Torus()
	demands := pat.Demands(p)
	workers := effectiveWorkers(opts.Workers, len(demands))
	partials := newPartials(workers, t.Edges())
	stripePairs(t, partials, len(demands), func(i int, local []float64, sc *routing.PairScratch) {
		dm := demands[i]
		alg.AccumulatePair(t, dm.Src, dm.Dst, dm.Weight, local, sc)
	})
	return newResult(t, p, alg.Name()+"/"+pat.Name(), mergePartials(partials))
}

// PatternTotal returns Σ demands weight·Lee(src,dst): the conserved total
// expected edge usage of the pattern under any minimal routing.
func PatternTotal(p *placement.Placement, pat Pattern) float64 {
	t := p.Torus()
	total := 0.0
	for _, dm := range pat.Demands(p) {
		total += dm.Weight * float64(t.LeeDistance(dm.Src, dm.Dst))
	}
	return total
}
