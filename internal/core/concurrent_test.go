package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"torusnet/internal/load"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// TestAnalyzeConcurrentDeterministic guards the worker-pool path torusd
// relies on: many goroutines running Analyze concurrently — sharing one
// placement, as the service's cache/coalescing layer does — must produce
// results bit-identical to a sequential run. A Report carries only the
// load summary, so the same goroutines also run load.ComputeCtx and check
// its per-edge vector against the sequential one. Run under -race in CI,
// this also proves the pipeline touches no shared mutable state.
func TestAnalyzeConcurrentDeterministic(t *testing.T) {
	tor := torus.New(8, 2)
	shared, err := placement.Linear{C: 0}.Build(tor)
	if err != nil {
		t.Fatal(err)
	}
	// A fixed worker count pins the load engine's floating-point merge
	// order, making float64 results exactly reproducible.
	const loadWorkers = 3
	algs := []routing.Algorithm{routing.ODR{}, routing.UDR{}, routing.FAR{}}

	computeLoads := func(alg routing.Algorithm) *load.Result {
		return load.ComputeCtx(context.Background(), shared, alg, load.Options{Workers: loadWorkers})
	}
	want := make([]*Report, len(algs))
	wantLoads := make([]*load.Result, len(algs))
	for i, alg := range algs {
		want[i] = Analyze(shared, alg, loadWorkers)
		wantLoads[i] = computeLoads(alg)
	}

	const goroutines = 8
	got := make([][]*Report, goroutines)
	gotLoads := make([][]*load.Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reports := make([]*Report, len(algs))
			loads := make([]*load.Result, len(algs))
			for i, alg := range algs {
				reports[i] = Analyze(shared, alg, loadWorkers)
				loads[i] = computeLoads(alg)
			}
			got[g], gotLoads[g] = reports, loads
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		for i := range algs {
			seq, par := want[i], got[g][i]
			if math.Float64bits(par.Load.Max) != math.Float64bits(seq.Load.Max) ||
				par.Load.MaxEdge != seq.Load.MaxEdge ||
				math.Float64bits(par.Load.Total) != math.Float64bits(seq.Load.Total) {
				t.Errorf("goroutine %d, %s: E_max/edge/total %v/%d/%v, want %v/%d/%v",
					g, algs[i].Name(), par.Load.Max, par.Load.MaxEdge, par.Load.Total,
					seq.Load.Max, seq.Load.MaxEdge, seq.Load.Total)
			}
			seqLoads, parLoads := wantLoads[i].Loads, gotLoads[g][i].Loads
			if len(parLoads) != len(seqLoads) || len(seqLoads) != tor.Edges() {
				t.Fatalf("goroutine %d, %s: %d loads, want %d",
					g, algs[i].Name(), len(parLoads), len(seqLoads))
			}
			for e := range seqLoads {
				if math.Float64bits(parLoads[e]) != math.Float64bits(seqLoads[e]) {
					t.Fatalf("goroutine %d, %s: edge %d load %v, want %v (not bit-identical)",
						g, algs[i].Name(), e, parLoads[e], seqLoads[e])
				}
			}
			if par.BlaumBound != seq.BlaumBound ||
				par.BisectionBound != seq.BisectionBound ||
				par.ImprovedBound != seq.ImprovedBound ||
				par.OptimalityRatio != seq.OptimalityRatio {
				t.Errorf("goroutine %d, %s: bounds diverged from sequential run", g, algs[i].Name())
			}
			if par.SweepCut.Width() != seq.SweepCut.Width() ||
				par.DimensionCut.Width() != seq.DimensionCut.Width() {
				t.Errorf("goroutine %d, %s: cut widths diverged", g, algs[i].Name())
			}
		}
	}
}

// TestAnalyzeConcurrentAcrossShapes runs Analyze from many goroutines over
// torus shapes totalling 2^17 nodes, twice what the bisection package's
// sweep-table cache keeps, so tables are built, shared and evicted while
// other goroutines read them. Every answer must equal the sequential one.
func TestAnalyzeConcurrentAcrossShapes(t *testing.T) {
	var places []*placement.Placement
	for k, nodes := 2, 0; nodes <= 1<<17; k++ {
		for _, d := range []int{1, 2} {
			tor := torus.New(k, d)
			p, err := placement.Random{Count: min(8, tor.Nodes()), Seed: int64(k)}.Build(tor)
			if err != nil {
				t.Fatal(err)
			}
			places = append(places, p)
			nodes += tor.Nodes()
		}
	}
	want := make([]*Report, len(places))
	for i, p := range places {
		want[i] = Analyze(p, routing.UDR{}, 1)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(places))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range places {
				i := (j*(g+1) + g) % len(places)
				got, seq := Analyze(places[i], routing.UDR{}, 1), want[i]
				if got.BestLowerBound() != seq.BestLowerBound() ||
					got.SweepCut.String() != seq.SweepCut.String() ||
					got.DimensionCut.String() != seq.DimensionCut.String() ||
					got.OptimalityRatio != seq.OptimalityRatio {
					errs <- places[i].String()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("%s: concurrent analysis differs from the sequential one", e)
	}
}
