package bisect

import (
	"testing"

	"torusnet/internal/bounds"
	"torusnet/internal/placement"
	"torusnet/internal/torus"
)

func build(t *testing.T, spec placement.Spec, tr *torus.Torus) *placement.Placement {
	t.Helper()
	p, err := spec.Build(tr)
	if err != nil {
		t.Fatalf("build %s: %v", spec.Name(), err)
	}
	return p
}

func TestDimensionCutWidthIsTheorem1(t *testing.T) {
	// Theorem 1: removing two antipodal crossings cuts exactly 4·k^{d−1}
	// directed edges.
	for _, c := range []struct{ k, d int }{{4, 2}, {6, 2}, {4, 3}, {5, 3}, {8, 2}, {3, 4}} {
		tr := torus.New(c.k, c.d)
		p := build(t, placement.Linear{C: 0}, tr)
		for dim := 0; dim < c.d; dim++ {
			cut := DimensionCut(p, dim)
			want := 4 * tr.Nodes() / c.k // 4·k^{d−1}
			if cut.Width() != want {
				t.Errorf("T^%d_%d dim %d: width %d, want %d", c.d, c.k, dim, cut.Width(), want)
			}
			if err := cut.Verify(p); err != nil {
				t.Errorf("T^%d_%d dim %d: %v", c.d, c.k, dim, err)
			}
		}
	}
}

func TestDimensionCutBalancedForUniformEvenK(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 2}, {6, 2}, {4, 3}, {6, 3}, {8, 2}} {
		tr := torus.New(c.k, c.d)
		for _, spec := range []placement.Spec{
			placement.Linear{C: 0},
			placement.MultipleLinear{T: 2},
			placement.Full{},
		} {
			p := build(t, spec, tr)
			cut := DimensionCut(p, 0)
			if cut.ProcsA != cut.ProcsB {
				t.Errorf("T^%d_%d %s: split %d|%d, want even", c.d, c.k, spec.Name(), cut.ProcsA, cut.ProcsB)
			}
		}
	}
}

func TestDimensionCutOddKNearBalance(t *testing.T) {
	// Odd k: side A holds ⌊k/2⌋ of the k uniform layers, so the imbalance
	// is exactly one layer (k^{d−2} processors for a linear placement).
	tr := torus.New(5, 3)
	p := build(t, placement.Linear{C: 0}, tr)
	cut := DimensionCut(p, 1)
	if cut.ProcsA+cut.ProcsB != p.Size() {
		t.Fatalf("processors lost: %d + %d != %d", cut.ProcsA, cut.ProcsB, p.Size())
	}
	if diff := cut.ProcsB - cut.ProcsA; diff != 5 { // one layer of k^{d−2} = 5
		t.Errorf("imbalance %d, want one layer (5)", diff)
	}
}

func TestDimensionCutDisconnectsSides(t *testing.T) {
	// Removing the cut edges must leave no path between the two sides.
	tr := torus.New(4, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	cut := DimensionCut(p, 0)
	sideA := cut.SideA()
	removed := make(map[torus.Edge]bool, cut.Width())
	for _, e := range cut.Edges() {
		removed[e] = true
	}
	// BFS from a side-A node without crossing removed edges.
	var start torus.Node = -1
	for u, inA := range sideA {
		if inA {
			start = torus.Node(u)
			break
		}
	}
	visited := make([]bool, tr.Nodes())
	visited[start] = true
	queue := []torus.Node{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for j := 0; j < tr.D(); j++ {
			for _, dir := range []torus.Direction{torus.Plus, torus.Minus} {
				e := tr.EdgeFrom(u, j, dir)
				if removed[e] {
					continue
				}
				v := tr.EdgeTarget(e)
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	for u, vis := range visited {
		if vis && !sideA[u] {
			t.Fatalf("node %d on side B reachable from side A after cut", u)
		}
	}
}

func TestBestDimensionCutPicksBalanced(t *testing.T) {
	tr := torus.New(4, 2)
	// A placement uniform along dim 1 only: two processors in row 0 in
	// every column... construct explicitly: processors at (0, v) and (1, v)
	// for every v. Along dim 1 each layer has 2; along dim 0 layers have
	// 4, 4, 0, 0.
	coords := make([][]int, 0, 8)
	for v := 0; v < 4; v++ {
		coords = append(coords, []int{0, v}, []int{1, v})
	}
	p := build(t, placement.Explicit{Label: "two-rows", Coords: coords}, tr)
	cut := BestDimensionCut(p)
	if !cut.Balanced() {
		t.Errorf("best dimension cut unbalanced: %s", cut)
	}
}

func TestSweepBalancedForArbitraryPlacements(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 2}, {5, 2}, {6, 2}, {4, 3}, {5, 3}, {3, 4}} {
		tr := torus.New(c.k, c.d)
		specs := []placement.Spec{
			placement.Linear{C: 0},
			placement.MultipleLinear{T: 2},
			placement.Random{Count: tr.Nodes() / 2, Seed: 5},
			placement.Random{Count: tr.Nodes()/2 + 1, Seed: 9},
			placement.Full{},
		}
		for _, spec := range specs {
			p := build(t, spec, tr)
			cut := Sweep(p)
			if !cut.Balanced() {
				t.Errorf("T^%d_%d %s: sweep split %d|%d", c.d, c.k, spec.Name(), cut.ProcsA, cut.ProcsB)
			}
			if err := cut.Verify(p); err != nil {
				t.Errorf("T^%d_%d %s: %v", c.d, c.k, spec.Name(), err)
			}
		}
	}
}

func TestSweepWidthWithinCorollary1(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 2}, {6, 2}, {8, 2}, {4, 3}, {5, 3}, {6, 3}, {3, 4}, {4, 4}, {3, 5}} {
		tr := torus.New(c.k, c.d)
		for _, spec := range []placement.Spec{
			placement.Linear{C: 0},
			placement.Random{Count: tr.Nodes() / 3, Seed: 11},
		} {
			p := build(t, spec, tr)
			cut := Sweep(p)
			if ceiling := SweepCeiling(tr); cut.Width() > ceiling {
				t.Errorf("T^%d_%d %s: sweep width %d exceeds Corollary 1 ceiling %d",
					c.d, c.k, spec.Name(), cut.Width(), ceiling)
			}
		}
	}
}

func TestSweepMatchesBisectionBound(t *testing.T) {
	// The sweep cut feeds Eq. 8: its width gives a valid E_max lower bound.
	tr := torus.New(4, 3)
	p := build(t, placement.Linear{C: 0}, tr)
	cut := Sweep(p)
	lb := bounds.Bisection(p.Size(), cut.Width())
	if lb <= 0 {
		t.Errorf("bisection bound %v should be positive", lb)
	}
}

func TestSweepKeysAreDistinct(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 2}, {5, 3}, {3, 4}, {7, 2}} {
		tr := torus.New(c.k, c.d)
		keys := sweepKeys(tr)
		seen := make(map[string]bool, len(keys))
		for _, k := range keys {
			s := k.String()
			if seen[s] {
				t.Fatalf("T^%d_%d: duplicate sweep key %s (γ not tie-free)", c.d, c.k, s)
			}
			seen[s] = true
		}
	}
}

func TestSweepKeysRespectDominance(t *testing.T) {
	// If a ≤ b coordinate-wise with a ≠ b, the key of a must be smaller.
	tr := torus.New(4, 3)
	keys := sweepKeys(tr)
	a := tr.NodeAt([]int{1, 2, 0})
	b := tr.NodeAt([]int{2, 2, 0})
	c := tr.NodeAt([]int{1, 2, 1})
	if keys[a].Cmp(keys[b]) >= 0 || keys[a].Cmp(keys[c]) >= 0 {
		t.Error("sweep keys do not respect coordinate dominance")
	}
}

func TestBruteForceOnTinyTorus(t *testing.T) {
	tr := torus.New(3, 2) // 9 nodes
	p := build(t, placement.Linear{C: 0}, tr)
	cut, err := BruteForce(p)
	if err != nil {
		t.Fatal(err)
	}
	if !cut.Balanced() {
		t.Errorf("brute-force cut unbalanced: %s", cut)
	}
	if err := cut.Verify(p); err != nil {
		t.Error(err)
	}
	// Optimality anchoring: no constructive cut can beat the optimum.
	if sweep := Sweep(p); sweep.Width() < cut.Width() {
		t.Errorf("sweep width %d beats brute-force optimum %d", sweep.Width(), cut.Width())
	}
	if dim := BestDimensionCut(p); dim.Balanced() && dim.Width() < cut.Width() {
		t.Errorf("dimension cut width %d beats brute-force optimum %d", dim.Width(), cut.Width())
	}
}

func TestBruteForceMatchesKnownRingCut(t *testing.T) {
	// On a ring (d=1) with a full placement, the optimal bisection cuts the
	// ring at two places: 4 directed edges.
	tr := torus.New(6, 1)
	p := build(t, placement.Full{}, tr)
	cut, err := BruteForce(p)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Width() != 4 {
		t.Errorf("ring bisection width %d, want 4", cut.Width())
	}
}

func TestBruteForceRefusesLargeTori(t *testing.T) {
	tr := torus.New(5, 2) // 25 nodes
	p := build(t, placement.Linear{C: 0}, tr)
	if _, err := BruteForce(p); err == nil {
		t.Error("BruteForce should refuse 25 nodes")
	}
}

func TestBruteForceRefusesTrivialPlacements(t *testing.T) {
	tr := torus.New(3, 2)
	p := build(t, placement.Explicit{Label: "one", Coords: [][]int{{0, 0}}}, tr)
	if _, err := BruteForce(p); err == nil {
		t.Error("BruteForce should refuse |P| < 2")
	}
}

func TestCutStringAndBalanced(t *testing.T) {
	tr := torus.New(4, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	cut := DimensionCut(p, 0)
	if cut.String() == "" {
		t.Error("empty String()")
	}
	if !cut.Balanced() {
		t.Error("dimension cut of uniform placement should be balanced")
	}
}

func TestArraySlabCrossings(t *testing.T) {
	tr := torus.New(4, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	cut := Sweep(p)
	arrayE, wrapE := ArraySlabCrossings(tr, cut)
	if arrayE+wrapE != cut.Width() {
		t.Errorf("decomposition %d + %d != width %d", arrayE, wrapE, cut.Width())
	}
	// The appendix bound: array-edge crossings ≤ 2·d·k^{d−1} undirected,
	// i.e. 4·d·k^{d−1} directed.
	if limit := 4 * tr.D() * tr.Nodes() / tr.K(); arrayE > limit {
		t.Errorf("array crossings %d exceed appendix bound %d", arrayE, limit)
	}
}

func TestTheorem1WidthAgainstBoundsPackage(t *testing.T) {
	tr := torus.New(6, 3)
	p := build(t, placement.Linear{C: 0}, tr)
	cut := DimensionCut(p, 2)
	if got, want := float64(cut.Width()), bounds.Theorem1Width(6, 3); got != want {
		t.Errorf("width %v, bounds.Theorem1Width %v", got, want)
	}
}

func TestBestSweepNeverWorseThanSweep(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 2}, {5, 2}, {6, 2}, {4, 3}, {5, 3}, {3, 4}} {
		tr := torus.New(c.k, c.d)
		for _, spec := range []placement.Spec{
			placement.Linear{C: 0},
			placement.Random{Count: tr.Nodes() / 3, Seed: 21},
			placement.MultipleLinear{T: 2},
		} {
			p := build(t, spec, tr)
			plain := Sweep(p)
			best := BestSweep(p)
			if best.Width() > plain.Width() {
				t.Errorf("T^%d_%d %s: best-sweep width %d exceeds sweep %d",
					c.d, c.k, spec.Name(), best.Width(), plain.Width())
			}
			if !best.Balanced() {
				t.Errorf("T^%d_%d %s: best-sweep unbalanced %d|%d",
					c.d, c.k, spec.Name(), best.ProcsA, best.ProcsB)
			}
			if err := best.Verify(p); err != nil {
				t.Errorf("T^%d_%d %s: %v", c.d, c.k, spec.Name(), err)
			}
		}
	}
}

func TestBestSweepWidthMatchesRecomputation(t *testing.T) {
	// The incremental width bookkeeping must agree with finalize's full
	// recount (Verify checks edges, this checks the chosen position is
	// genuinely the minimum over the balanced window).
	tr := torus.New(4, 2)
	p := build(t, placement.Random{Count: 6, Seed: 33}, tr)
	best := BestSweep(p)
	order := sortedBySweepKey(tr)
	target := p.Size() / 2
	minWidth := -1
	procs := 0
	for n := 1; n < len(order); n++ {
		if p.Contains(order[n-1]) {
			procs++
		}
		if procs != target {
			continue
		}
		cut := prefixCutOracle(p, order, n, "sweep-prefix")
		if minWidth < 0 || cut.Width() < minWidth {
			minWidth = cut.Width()
		}
	}
	if best.Width() != minWidth {
		t.Errorf("best-sweep width %d, exhaustive minimum over balanced window %d",
			best.Width(), minWidth)
	}
}

func TestBestSweepNotBelowBruteForce(t *testing.T) {
	tr := torus.New(4, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	best := BestSweep(p)
	opt, err := BruteForce(p)
	if err != nil {
		t.Fatal(err)
	}
	if best.Width() < opt.Width() {
		t.Errorf("best-sweep %d beats the optimum %d (impossible)", best.Width(), opt.Width())
	}
}
