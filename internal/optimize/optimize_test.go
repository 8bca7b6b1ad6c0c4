package optimize

import (
	"context"
	"testing"

	"torusnet/internal/load"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

func TestAnnealImprovesOrMatchesStart(t *testing.T) {
	tr := torus.New(5, 2)
	res := Anneal(tr, routing.UDR{}, Config{Size: 5, Steps: 120, Seed: 1})
	if res.BestEMax > res.StartEMax {
		t.Errorf("best %v worse than start %v", res.BestEMax, res.StartEMax)
	}
	if res.Best.Size() != 5 {
		t.Errorf("size %d", res.Best.Size())
	}
	// Reported best energy is reproducible.
	re := load.Compute(res.Best, routing.UDR{}, load.Options{}).Max
	if re != res.BestEMax {
		t.Errorf("recomputed %v, reported %v", re, res.BestEMax)
	}
}

func TestAnnealDeterministic(t *testing.T) {
	tr := torus.New(4, 2)
	a := Anneal(tr, routing.ODR{}, Config{Size: 4, Steps: 60, Seed: 9})
	b := Anneal(tr, routing.ODR{}, Config{Size: 4, Steps: 60, Seed: 9})
	if a.BestEMax != b.BestEMax || a.Accepted != b.Accepted {
		t.Error("same seed must reproduce the search")
	}
	for i, u := range a.Best.Nodes() {
		if b.Best.Nodes()[i] != u {
			t.Fatal("best placements differ")
		}
	}
}

func TestAnnealCannotBeatLinearByMuch(t *testing.T) {
	// The empirical optimality check: annealing size-k placements on T²_k
	// should not find anything meaningfully below the linear placement's
	// E_max (allowing a small slack for lucky symmetric configurations).
	tr := torus.New(5, 2)
	lin, err := placement.Linear{C: 0}.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	linMax := load.Compute(lin, routing.UDR{}, load.Options{}).Max
	res := Anneal(tr, routing.UDR{}, Config{Size: lin.Size(), Steps: 400, Seed: 3})
	if res.BestEMax < linMax*0.75 {
		t.Errorf("annealed %v dramatically beats linear %v — optimality claim in doubt",
			res.BestEMax, linMax)
	}
}

func TestAnnealPanicsOnBadSize(t *testing.T) {
	tr := torus.New(4, 2)
	for _, size := range []int{0, 1, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d should panic", size)
				}
			}()
			Anneal(tr, routing.ODR{}, Config{Size: size, Steps: 5, Seed: 1})
		}()
	}
}

func TestAnnealPanicsOnBadStart(t *testing.T) {
	tr := torus.New(6, 2)
	for _, start := range [][]torus.Node{
		{0, 7, 7, 14, 21, 28},
		{0, 7, 14, 21, 28, 36},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Start %v should panic", start)
				}
			}()
			Anneal(tr, routing.ODR{}, Config{Size: 6, Steps: 5, Seed: 1, Start: start})
		}()
	}
}

func TestAnnealDefaults(t *testing.T) {
	tr := torus.New(4, 2)
	res := Anneal(tr, routing.ODR{}, Config{Size: 4, Seed: 2})
	if res.Steps != 200 {
		t.Errorf("default steps %d, want 200", res.Steps)
	}
	if res.Strategy != StrategyAnneal {
		t.Errorf("strategy %q, want %q", res.Strategy, StrategyAnneal)
	}
}

func TestAnnealCtxCancelMidRun(t *testing.T) {
	tr := torus.New(5, 2)
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	cfg := Config{Size: 5, Steps: 500, Seed: 1, ProgressEvery: 1, Progress: func(p Progress) {
		steps = p.Step
		if p.Step >= 40 {
			cancel()
		}
	}}
	res, err := AnnealCtx(ctx, tr, routing.ODR{}, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Best == nil {
		t.Fatal("cancelled run must still return the best placement so far")
	}
	if res.Steps >= 500 || steps < 40 {
		t.Errorf("executed steps = %d (progress saw %d), want an early stop past step 40", res.Steps, steps)
	}
}

func TestAnnealStartSeed(t *testing.T) {
	tr := torus.New(6, 2)
	seed := leeSeedNodes(tr, 6)
	res, err := AnnealCtx(context.Background(), tr, routing.ODR{}, Config{Size: 6, Steps: 30, Seed: 4, Start: seed})
	if err != nil {
		t.Fatal(err)
	}
	want := energy(context.Background(), tr, seed, routing.ODR{}, 0)
	if res.StartEMax != want {
		t.Errorf("StartEMax = %v, want the seed's energy %v", res.StartEMax, want)
	}
	if res.BestEMax > want {
		t.Errorf("best %v worse than the seed %v", res.BestEMax, want)
	}
}

func TestAnnealProgressMonotone(t *testing.T) {
	tr := torus.New(5, 2)
	last := -1.0
	prev := 1e18
	res := Anneal(tr, routing.ODR{}, Config{Size: 5, Steps: 100, Seed: 2, ProgressEvery: 10, Progress: func(p Progress) {
		if p.Strategy != StrategyAnneal {
			t.Errorf("progress strategy %q", p.Strategy)
		}
		if p.BestEMax > prev {
			t.Errorf("best-so-far rose from %v to %v", prev, p.BestEMax)
		}
		prev = p.BestEMax
		last = p.BestEMax
	}})
	if last != res.BestEMax {
		t.Errorf("final progress best %v, result best %v", last, res.BestEMax)
	}
}

// naiveOptimum enumerates every subset containing node 0 (sound for the
// translation-equivariant algorithms used in these tests) and returns the
// minimum E_max — the independent oracle for BranchAndBound.
func naiveOptimum(t *torus.Torus, size int, alg routing.Algorithm) float64 {
	best := 1e18
	var rec func(chosen []torus.Node, next int)
	rec = func(chosen []torus.Node, next int) {
		if len(chosen) == size {
			if e := energy(context.Background(), t, chosen, alg, 0); e < best {
				best = e
			}
			return
		}
		for v := next; v <= t.Nodes()-(size-len(chosen)); v++ {
			rec(append(chosen, torus.Node(v)), v+1)
		}
	}
	rec([]torus.Node{0}, 1)
	return best
}

func TestBranchBoundMatchesNaiveEnumeration(t *testing.T) {
	cases := []struct {
		k, d, size int
		alg        routing.Algorithm
	}{
		{4, 2, 4, routing.ODR{}},
		{4, 2, 5, routing.ODR{}},
		{5, 2, 4, routing.UDR{}},
		{3, 3, 4, routing.ODR{}},
	}
	for _, c := range cases {
		tr := torus.New(c.k, c.d)
		want := naiveOptimum(tr, c.size, c.alg)
		res, err := BranchAndBound(context.Background(), tr, c.alg, Config{Size: c.size})
		if err != nil {
			t.Fatalf("k=%d d=%d size=%d: %v", c.k, c.d, c.size, err)
		}
		if !res.Proven {
			t.Errorf("k=%d d=%d size=%d: not proven", c.k, c.d, c.size)
		}
		if res.BestEMax != want {
			t.Errorf("k=%d d=%d size=%d %s: bnb %v, naive optimum %v",
				c.k, c.d, c.size, c.alg.Name(), res.BestEMax, want)
		}
		if re := load.Compute(res.Best, c.alg, load.Options{}).Max; re != res.BestEMax {
			t.Errorf("recomputed %v, reported %v", re, res.BestEMax)
		}
	}
}

func TestBranchBoundProvenOptimumT28(t *testing.T) {
	// The acceptance instance: T²₈ with |P| = 8 under ODR. The linear
	// placement (Theorem 2) has E_max = k/2 = 4; the exhaustive search
	// proves an unstructured placement achieves 3 — Theorem 2's optimality
	// is asymptotic, and this pins the small-torus gap exactly.
	tr := torus.New(8, 2)
	res, err := BranchAndBound(context.Background(), tr, routing.ODR{}, Config{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven {
		t.Fatalf("T²₈ search not proven (visited %d, pruned %d)", res.Visited, res.Pruned)
	}
	if res.BestEMax != 3 {
		t.Errorf("proven optimum %v, want 3", res.BestEMax)
	}
	lin, err := placement.Linear{C: 0}.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if linMax := load.Compute(lin, routing.ODR{}, load.Options{}).Max; res.BestEMax > linMax {
		t.Errorf("optimum %v above the linear construction's %v", res.BestEMax, linMax)
	}
	if res.Gap < 0 || res.LowerBound <= 0 {
		t.Errorf("provenance: lower bound %v, gap %v", res.LowerBound, res.Gap)
	}
}

func TestBranchBoundBudgetTruncates(t *testing.T) {
	tr := torus.New(8, 2)
	res, err := BranchAndBound(context.Background(), tr, routing.ODR{}, Config{Size: 8, MaxVisited: bnbCheckEvery})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proven {
		t.Error("budget-truncated search claims a proven optimum")
	}
	if res.Best == nil || res.BestEMax > res.StartEMax {
		t.Errorf("truncated search must still return an incumbent no worse than its seed (%v > %v)",
			res.BestEMax, res.StartEMax)
	}
}

func TestBranchBoundCancelled(t *testing.T) {
	tr := torus.New(8, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := BranchAndBound(ctx, tr, routing.ODR{}, Config{Size: 8})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Proven {
		t.Errorf("cancelled search: res=%v", res)
	}
}

func TestBranchBoundRejectsBadInput(t *testing.T) {
	if _, err := BranchAndBound(context.Background(), torus.New(4, 2), routing.ODR{}, Config{Size: 1}); err == nil {
		t.Error("size 1 accepted")
	}
	if _, err := BranchAndBound(context.Background(), torus.New(10, 3), routing.ODR{}, Config{Size: 4}); err == nil {
		t.Error("torus past BranchBoundNodeLimit accepted")
	}
	if _, err := BranchAndBound(context.Background(), torus.New(4, 2), routing.ODR{}, Config{Size: 4, Start: []torus.Node{0}}); err == nil {
		t.Error("Start/Size mismatch accepted")
	}
	// Duplicate and out-of-range Start nodes: placement.New would drop a
	// duplicate and seed the incumbent with a smaller placement's energy.
	for _, start := range [][]torus.Node{
		{0, 7, 7, 14, 21, 28},
		{0, 7, 14, 21, 28, 36},
		{-1, 7, 14, 21, 28, 35},
	} {
		if _, err := BranchAndBound(context.Background(), torus.New(6, 2), routing.ODR{}, Config{Size: 6, Start: start}); err == nil {
			t.Errorf("Start %v accepted", start)
		}
	}
}

func TestLeeSeedTilingSpread(t *testing.T) {
	for _, c := range []struct{ k, d, size int }{{8, 2, 8}, {6, 2, 4}, {8, 3, 8}} {
		tr := torus.New(c.k, c.d)
		res, err := LeeSeed(tr, c.size, routing.ODR{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyLeeSphere || res.Best.Size() != c.size {
			t.Fatalf("k=%d d=%d: strategy %q size %d", c.k, c.d, res.Strategy, res.Best.Size())
		}
		// Greedy farthest-point sampling is a 2-approximation of the
		// optimal spread, so the min pairwise Lee distance must clear the
		// tiling radius itself (the optimal packing clears 2t).
		r := TilingRadius(tr, c.size)
		nodes := res.Best.Nodes()
		minDist := tr.D() * tr.K()
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				if d := tr.LeeDistance(nodes[i], nodes[j]); d < minDist {
					minDist = d
				}
			}
		}
		if minDist <= r {
			t.Errorf("k=%d d=%d size=%d: min pairwise distance %d does not clear the tiling radius %d",
				c.k, c.d, c.size, minDist, r)
		}
		// Deterministic.
		again, err := LeeSeed(tr, c.size, routing.ODR{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range nodes {
			if again.Best.Nodes()[i] != u {
				t.Fatal("LeeSeed is not deterministic")
			}
		}
	}
}

func TestResultProvenanceStamped(t *testing.T) {
	tr := torus.New(6, 2)
	anneal := Anneal(tr, routing.ODR{}, Config{Size: 6, Steps: 40, Seed: 1})
	bb, err := BranchAndBound(context.Background(), tr, routing.ODR{}, Config{Size: 6})
	if err != nil {
		t.Fatal(err)
	}
	lee, err := LeeSeed(tr, 6, routing.ODR{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{anneal, bb, lee} {
		if res.Strategy == "" {
			t.Error("missing strategy provenance")
		}
		if res.LowerBound <= 0 {
			t.Errorf("%s: lower bound %v, want > 0", res.Strategy, res.LowerBound)
		}
		if res.Gap != res.BestEMax-res.LowerBound {
			t.Errorf("%s: gap %v inconsistent with %v - %v", res.Strategy, res.Gap, res.BestEMax, res.LowerBound)
		}
	}
	// The proven optimum can be no worse than any other strategy's best.
	if bb.Proven && (bb.BestEMax > anneal.BestEMax+loadEps || bb.BestEMax > lee.BestEMax+loadEps) {
		t.Errorf("proven optimum %v worse than anneal %v / lee %v", bb.BestEMax, anneal.BestEMax, lee.BestEMax)
	}
}
