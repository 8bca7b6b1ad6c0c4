package load

import (
	"math/rand"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// MonteCarlo estimates edge loads empirically: each of the given rounds
// performs one complete exchange in which every ordered pair samples a
// routing path at random (the operational model in §2.1), and per-edge
// message counts are averaged over rounds. As rounds grows the estimate
// converges to the exact expectation from Compute; the estimator also
// exposes the per-edge *peak* over rounds, the quantity a capacity planner
// would care about.
//
// It panics if rounds < 1: a mean over no rounds is undefined.
func MonteCarlo(p *placement.Placement, alg routing.Algorithm, rounds int, seed int64, opts Options) *MonteCarloResult {
	if rounds < 1 {
		panic("load: Monte Carlo needs at least one round")
	}
	t := p.Torus()
	workers := effectiveWorkers(opts.Workers, rounds)
	procs := p.Nodes()

	sums := newPartials(workers, t.Edges())
	peaks := newPartials(workers, t.Edges())
	counts := newPartials(workers, t.Edges())
	// Every round allocates its generator and paths anyway, so the state
	// stripe hands each round is simply the round's closure.
	round := func(w, r int) {
		// Each round gets its own derived, reproducible stream.
		rng := rand.New(rand.NewSource(seed + int64(r)*1_000_003))
		count := counts[w]
		for i := range count {
			count[i] = 0
		}
		for _, src := range procs {
			for _, dst := range procs {
				if dst == src {
					continue
				}
				path := alg.SamplePath(t, src, dst, rng)
				for _, e := range path.Edges {
					count[e]++
				}
			}
		}
		sum, peak := sums[w], peaks[w]
		for e, c := range count {
			sum[e] += c
			if c > peak[e] {
				peak[e] = c
			}
		}
	}
	stripe(workers, rounds, round, func(round func(w, r int), w, r int) { round(w, r) })

	mean := mergePartials(sums)
	peak := make([]float64, t.Edges())
	for _, pk := range peaks {
		for e, c := range pk {
			if c > peak[e] {
				peak[e] = c
			}
		}
	}
	res := &MonteCarloResult{Torus: t, Rounds: rounds, MeanLoads: mean, PeakLoads: peak}
	for e := range mean {
		mean[e] /= float64(rounds)
		if mean[e] > res.MaxMean {
			res.MaxMean = mean[e]
		}
		if peak[e] > res.MaxPeak {
			res.MaxPeak = peak[e]
		}
	}
	return res
}

// newPartials returns one zeroed per-edge accumulator per worker. The
// sampler keeps three such sets for the whole run, so it allocates them
// plainly rather than from the engine workspace.
func newPartials(workers, edges int) [][]float64 {
	partials := make([][]float64, workers)
	for w := range partials {
		partials[w] = make([]float64, edges)
	}
	return partials
}

// MonteCarloResult holds empirical load estimates.
type MonteCarloResult struct {
	Torus  *torus.Torus
	Rounds int
	// MeanLoads[e] is the average number of messages on e per exchange.
	MeanLoads []float64
	// PeakLoads[e] is the maximum observed over all rounds.
	PeakLoads []float64
	MaxMean   float64
	MaxPeak   float64
}
