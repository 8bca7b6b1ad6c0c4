package load

import (
	"math"
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
	sumsqs := newPartials(workers, t.Edges())
	peaks := newPartials(workers, t.Edges())
	counts := newPartials(workers, t.Edges())
	stripe(workers, rounds, func(w, r int) {
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
		sum, sumsq, peak := sums[w], sumsqs[w], peaks[w]
		for e, c := range count {
			sum[e] += c
			sumsq[e] += c * c
			if c > peak[e] {
				peak[e] = c
			}
		}
	})

	mean, sumsq := mergePartials(sums), mergePartials(sumsqs)
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
			res.MaxMeanEdge = torus.Edge(e)
			res.MaxMeanStdErr = stderrOfMean(mean[e], sumsq[e], rounds)
		}
		if peak[e] > res.MaxPeak {
			res.MaxPeak = peak[e]
		}
	}
	return res
}

// stderrOfMean computes the standard error of the per-round mean at one
// edge from its running Σc and Σc² (sample variance over rounds, then
// ÷√rounds). Fewer than two rounds have no measurable spread, so the
// estimate degrades to 0 — callers report the bound as "unknown tightness"
// rather than inventing one.
func stderrOfMean(mean, sumsq float64, rounds int) float64 {
	if rounds < 2 {
		return 0
	}
	r := float64(rounds)
	variance := (sumsq - r*mean*mean) / (r - 1)
	if variance <= 0 {
		// Zero (single-path algorithms like ODR have no per-round spread)
		// or slightly negative from float cancellation.
		return 0
	}
	return math.Sqrt(variance / r)
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
	// MaxMeanEdge is the edge attaining MaxMean, and MaxMeanStdErr is the
	// standard error of the per-round mean at that edge (0 when rounds < 2
	// or the algorithm is single-path, e.g. ODR, whose per-round loads are
	// deterministic). The service's degraded /v1/analyze answers report
	// 3×MaxMeanStdErr as the error bound on E_max.
	MaxMeanEdge   torus.Edge
	MaxMeanStdErr float64
}
