package core

import (
	"sync"
	"testing"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// TestAnalyzeConcurrentDeterministic guards the worker-pool path torusd
// relies on: many goroutines running Analyze concurrently — sharing one
// placement, as the service's cache/coalescing layer does — must produce
// results bit-identical to a sequential run. Run under -race in CI, this
// also proves the pipeline touches no shared mutable state.
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

	want := make([]*Report, len(algs))
	for i, alg := range algs {
		want[i] = Analyze(shared, alg, loadWorkers)
	}

	const goroutines = 8
	got := make([][]*Report, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reports := make([]*Report, len(algs))
			for i, alg := range algs {
				reports[i] = Analyze(shared, alg, loadWorkers)
			}
			got[g] = reports
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		for i := range algs {
			seq, par := want[i], got[g][i]
			if par.Load.Max != seq.Load.Max || par.Load.Total != seq.Load.Total {
				t.Errorf("goroutine %d, %s: E_max/total %v/%v, want %v/%v",
					g, algs[i].Name(), par.Load.Max, par.Load.Total, seq.Load.Max, seq.Load.Total)
			}
			if len(par.Load.Loads) != len(seq.Load.Loads) {
				t.Fatalf("goroutine %d, %s: %d loads, want %d",
					g, algs[i].Name(), len(par.Load.Loads), len(seq.Load.Loads))
			}
			for e := range seq.Load.Loads {
				if par.Load.Loads[e] != seq.Load.Loads[e] {
					t.Fatalf("goroutine %d, %s: edge %d load %v, want %v (not bit-identical)",
						g, algs[i].Name(), e, par.Load.Loads[e], seq.Load.Loads[e])
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
