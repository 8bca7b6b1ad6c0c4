package torusnet

import (
	"context"
	"testing"
)

// The facade tests double as end-to-end integration tests over the public
// API: topology → placement → routing → load → bounds → verdicts.

func TestFacadeEndToEnd(t *testing.T) {
	tor := NewTorus(6, 2)
	if n, err := Volume(6, 2); err != nil || n != tor.Nodes() {
		t.Fatalf("Volume(6,2) = %d, %v; torus has %d nodes", n, err, tor.Nodes())
	}
	p, err := (Linear{C: 0}).Build(tor)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 6 {
		t.Fatalf("|P| = %d, want 6", p.Size())
	}
	rep := Analyze(p, UDR{}, 0)
	if rep.OptimalityRatio < 1 {
		t.Errorf("optimality ratio %v < 1", rep.OptimalityRatio)
	}
	res := ComputeLoad(p, ODR{}, LoadOptions{})
	if res.Max < rep.BlaumBound {
		t.Errorf("E_max %v below Blaum bound %v", res.Max, rep.BlaumBound)
	}
}

func TestFacadeBisection(t *testing.T) {
	tor := NewTorus(6, 2)
	p, err := (MultipleLinear{T: 2}).Build(tor)
	if err != nil {
		t.Fatal(err)
	}
	dim := DimensionCut(p, 0)
	if dim.Width() != 24 { // 4·k^{d−1} = 4·6
		t.Errorf("dimension cut width %d, want 24", dim.Width())
	}
	sweepCut := SweepBisect(p)
	if !sweepCut.Balanced() {
		t.Error("sweep cut unbalanced")
	}
	if got := BisectionBound(p.Size(), dim.Width()); got <= 0 {
		t.Errorf("Eq. 8 bound %v", got)
	}
}

func TestFacadeSimulationAndFaults(t *testing.T) {
	tor := NewTorus(4, 2)
	p, err := (Linear{C: 0}).Build(tor)
	if err != nil {
		t.Fatal(err)
	}
	st := Simulate(SimConfig{Placement: p, Algorithm: ODR{}, Seed: 1})
	if st.Packets != p.Pairs() || st.Aborted {
		t.Errorf("simulation: %+v", st)
	}
	fr := AnalyzeFaults(p, UDR{}, 0)
	if fr.Pairs != p.Pairs() {
		t.Errorf("fault pairs %d, want %d", fr.Pairs, p.Pairs())
	}
	if broken := RandomFailureBrokenPairs(p, UDR{}, 1, 1); broken < 0 {
		t.Errorf("broken pairs %d", broken)
	}
}

func TestFacadeConstantsAndHelpers(t *testing.T) {
	if Mod(-5, 4) != 3 {
		t.Error("Mod broken")
	}
	if n, err := Volume(8, 3); err != nil || n != 512 {
		t.Errorf("Volume(8,3) = %d, %v", n, err)
	}
	if _, err := Volume(2, 64); err == nil {
		t.Error("Volume(2,64) exceeds MaxNodes but did not error")
	}
	if MaxNodes <= 0 {
		t.Error("MaxNodes not positive")
	}
	if MaxPlacementSize(0.5, 4, 3) != 12*3*0.5*16 {
		t.Error("MaxPlacementSize broken")
	}
}

func TestFacadeBestSweep(t *testing.T) {
	tor := NewTorus(5, 2)
	p, err := (Linear{C: 0}).Build(tor)
	if err != nil {
		t.Fatal(err)
	}
	best := BestSweepBisect(p)
	plain := SweepBisect(p)
	if best.Width() > plain.Width() || !best.Balanced() {
		t.Errorf("best sweep width %d vs plain %d", best.Width(), plain.Width())
	}
}

func TestFacadeFullSurfaceTour(t *testing.T) {
	tor := NewTorus(4, 2)
	lin, err := (Linear{C: 0}).Build(tor)
	if err != nil {
		t.Fatal(err)
	}

	// Placement specs all build on the same torus.
	for _, spec := range []PlacementSpec{
		Random{Count: 3, Seed: 1}, Full{}, MultipleLinear{T: 2},
	} {
		if q, err := spec.Build(tor); err != nil || q.Size() == 0 {
			t.Errorf("spec %s failed: %v", spec.Name(), err)
		}
	}

	// Routing aliases satisfy the interface and produce valid loads; the
	// traced entry point agrees with the plain one.
	if _, span := StartSpan(context.Background(), "untraced"); span != nil {
		t.Error("StartSpan without an active trace returned a span")
	}
	ctx, root := NewTracer(4).Root(context.Background(), "facade.tour", "")
	defer root.End()
	ctx, span := StartSpan(ctx, "load")
	if span == nil {
		t.Fatal("StartSpan under a root returned no span")
	}
	defer span.End()
	for _, alg := range []RoutingAlgorithm{ODR{}, UDR{}} {
		res := ComputeLoad(lin, alg, LoadOptions{})
		if res.Max <= 0 {
			t.Errorf("%s: zero load", alg.Name())
		}
		if traced := ComputeLoadCtx(ctx, lin, alg, LoadOptions{}); traced.Max != res.Max {
			t.Errorf("%s: ComputeLoadCtx %v vs ComputeLoad %v", alg.Name(), traced.Max, res.Max)
		}
	}

	// Pattern engine.
	for _, pat := range []TrafficPattern{
		PatternCompleteExchange{}, PatternTranspose{}, PatternHotSpot{},
		PatternShift{Offset: []int{1, 3}}, PatternRandomPairs{Count: 5, Seed: 1},
	} {
		res := ComputePatternLoad(lin, pat, UDR{}, LoadOptions{})
		if res.Total < 0 {
			t.Errorf("%s: negative total", pat.Name())
		}
	}

	// Simulators and the BSP fit.
	if st := SimulateWormhole(WormholeConfig{Placement: lin, Algorithm: ODR{}, Seed: 1,
		MaxCycles: 100000}); st.Deadlocked {
		t.Error("wormhole deadlock on linear placement")
	}
	if st := Simulate(SimConfig{Placement: lin, Algorithm: ODR{}, Seed: 1, Adaptive: true}); st.Cycles <= 0 {
		t.Error("adaptive simulation failed")
	}
	params, samples := EstimateBSP(lin, UDR{}, 3, 1)
	if len(samples) != 3 || params.G == 0 && params.L == 0 {
		t.Errorf("BSP estimate: %v %v", params, samples)
	}

	// Placement search: seed, anneal from it, and prove the optimum.
	if r := LeeTilingRadius(NewTorus(8, 2), 8); r != 1 { // 8 radius-1 balls (5 nodes each) fit in 64
		t.Errorf("Lee tiling radius %d for 8 balls on T²₈, want 1", r)
	}
	seed, err := LeeSeedPlacement(tor, 4, ODR{}, 1)
	if err != nil || seed.Best.Size() != 4 {
		t.Fatalf("Lee seed: %v", err)
	}
	var progress int
	ann, err := AnnealPlacementCtx(context.Background(), tor, ODR{}, AnnealConfig{
		Size: 4, Steps: 30, Seed: 1, Start: seed.Best.Nodes(),
		Progress: func(SearchProgress) { progress++ },
	})
	if err != nil || ann.Best.Size() != 4 {
		t.Errorf("anneal: %v", err)
	}
	if progress == 0 {
		t.Error("anneal reported no progress")
	}
	bb, err := BranchBoundPlacement(context.Background(), tor, ODR{}, AnnealConfig{Size: 4, Workers: 1})
	if err != nil || !bb.Proven || bb.BestEMax > ann.BestEMax {
		t.Errorf("branch-and-bound: err %v proven %v e_max %v vs anneal %v", err, bb.Proven, bb.BestEMax, ann.BestEMax)
	}

	if NewServiceClient("http://127.0.0.1:0") == nil {
		t.Error("NewServiceClient returned nil")
	}
}
