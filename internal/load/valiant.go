package load

import (
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// ComputeValiant evaluates the expected loads of Valiant's two-phase
// randomized routing: every message from p to q first travels to a uniform
// random intermediate node r (phase 1: p→r under the base algorithm), then
// on to its destination (phase 2: r→q). Valiant's scheme trades a factor
// ≤ 2 in total traffic for worst-case load balance on adversarial
// permutations — the classical fix for dimension-ordered routing's bad
// inputs, and the natural comparator suggested by the paper's BSP framing
// (Valiant [15]).
//
// The result is the exact expectation over both the random intermediate
// and the base algorithm's path choice. Note the intermediate may be any
// torus node (router-only nodes forward fine), and paths are no longer
// minimal end-to-end, so Result.Total ≈ 2·n·meanLee rather than the Lee
// sum — conservation becomes Σ_l E(l) = Σ_{p≠q} E_r[Lee(p,r) + Lee(r,q)].
func ComputeValiant(p *placement.Placement, pat Pattern, alg routing.Algorithm, opts Options) *Result {
	t := p.Torus()
	demands := pat.Demands(p)
	workers := effectiveWorkers(opts.Workers, len(demands))
	ws := getWorkspace()
	partials := ws.accumulators(workers, t.Edges(), true)
	dl := demandLoop{t, alg, demands, partials, ws.pairScratch(t, workers)}
	stripe(workers, len(demands), dl, func(s demandLoop, w, i int) {
		dm, local, sc := s.demands[i], s.partials[w], s.scratch[w]
		weight := dm.Weight * (1.0 / float64(s.t.Nodes()))
		for r := 0; r < s.t.Nodes(); r++ {
			mid := torus.Node(r)
			if mid != dm.Src {
				s.alg.AccumulatePair(s.t, dm.Src, mid, weight, local, sc)
			}
			if mid != dm.Dst {
				s.alg.AccumulatePair(s.t, mid, dm.Dst, weight, local, sc)
			}
		}
	})
	res := newResult(t, p, alg.Name()+"+valiant/"+pat.Name(), mergePartials(partials))
	ws.release()
	return &res
}

// ValiantExpectedTotal returns the conserved total for Valiant routing:
// Σ demands weight · E_r[Lee(src,r) + Lee(r,dst)].
func ValiantExpectedTotal(p *placement.Placement, pat Pattern) float64 {
	t := p.Torus()
	// E_r[Lee(x, r)] is the same for every x by vertex transitivity:
	// meanLee = Σ_v Lee(0, v) / n.
	sum := 0
	t.ForEachNode(func(v torus.Node) { sum += t.LeeDistance(0, v) })
	meanLee := float64(sum) / float64(t.Nodes())
	total := 0.0
	for _, dm := range pat.Demands(p) {
		total += dm.Weight * 2 * meanLee
	}
	return total
}
