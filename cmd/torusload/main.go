// Command torusload computes the exact communication load of a placement
// and routing algorithm on T^d_k under one complete exchange, together with
// every lower bound of the paper and the resulting optimality verdict.
//
// Usage:
//
//	torusload -k 8 -d 3 -placement linear -routing odr
//	torusload -k 6 -d 2 -placement multi:2 -routing udr -dist
//	torusload -k 4 -d 3 -placement full -routing odr -mc 100
//
// The report carries E_max and its busiest edge but no per-edge loads, so
// -dist runs the load engine once more, keeping every edge's load, for
// its histogram, nonzero-edge count and per-dimension maxima.
package main

import (
	"flag"
	"fmt"
	"os"

	"torusnet/internal/cliutil"
	"torusnet/internal/core"
	"torusnet/internal/load"
	"torusnet/internal/stats"
	"torusnet/internal/torus"
)

func main() {
	var (
		k         = flag.Int("k", 8, "torus radix (nodes per dimension)")
		d         = flag.Int("d", 2, "torus dimensions")
		placeSpec = flag.String("placement", "linear", "placement: linear[:C]|multi:T[:S]|diagonal[:S]|full|random:N[:SEED]")
		routeSpec = flag.String("routing", "odr", "routing: odr|odr-multi|udr|far")
		workers   = flag.Int("workers", 0, "load-engine workers (0 = GOMAXPROCS)")
		dist      = flag.Bool("dist", false, "also compute every edge's load and print its distribution histogram")
		mcRounds  = flag.Int("mc", 0, "also run a Monte-Carlo estimate with this many rounds")
		seed      = flag.Int64("seed", 1, "Monte-Carlo seed")
		full      = flag.Bool("full", false, "run the full pipeline: faults, coverage, scheduling")
	)
	flag.Parse()

	if err := run(*k, *d, *placeSpec, *routeSpec, *workers, *dist, *mcRounds, *seed, *full); err != nil {
		fmt.Fprintln(os.Stderr, "torusload:", err)
		os.Exit(1)
	}
}

func run(k, d int, placeSpec, routeSpec string, workers int, dist bool, mcRounds int, seed int64, full bool) error {
	if err := torus.Check(k, d); err != nil {
		return err
	}
	spec, err := cliutil.ParsePlacement(placeSpec)
	if err != nil {
		return err
	}
	alg, err := cliutil.ParseRouting(routeSpec)
	if err != nil {
		return err
	}
	t := torus.New(k, d)
	p, err := spec.Build(t)
	if err != nil {
		return err
	}

	if full {
		rep := core.AnalyzeFull(p, alg, workers)
		fmt.Print(rep)
		return nil
	}
	rep := core.Analyze(p, alg, workers)
	fmt.Print(rep)

	if dist {
		// The report carries only E_max; the histogram needs every edge.
		res := load.Compute(p, alg, load.Options{Workers: workers})
		h := stats.NewHistogram(res.Loads, 12)
		fmt.Println("\nload distribution over directed edges:")
		fmt.Print(h.Render(48))
		fmt.Printf("nonzero edges: %d of %d, mean load %.4f (nonzero mean %.4f)\n",
			res.NonzeroEdges(), t.Edges(), res.Mean(), res.MeanNonzero())
		fmt.Printf("per-dimension max:")
		for j, v := range res.PerDimensionMax() {
			fmt.Printf(" dim%d=%.4f", j, v)
		}
		fmt.Println()
	}

	if mcRounds > 0 {
		mc := load.MonteCarlo(p, alg, mcRounds, seed, load.Options{Workers: workers})
		fmt.Printf("\nMonte-Carlo over %d exchanges: max mean load %.4f (exact %.4f), max single-round peak %.0f\n",
			mcRounds, mc.MaxMean, rep.Load.Max, mc.MaxPeak)
	}
	return nil
}
