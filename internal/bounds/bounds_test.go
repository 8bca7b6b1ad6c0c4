package bounds

import (
	"math"
	"testing"

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

func TestBlaumValues(t *testing.T) {
	// Paper: for d = 2, E_max ≥ |P|/4; for d = 3, E_max ≥ |P|/6 (up to the
	// −1 in the numerator).
	if got := Blaum(17, 2); got != 4 {
		t.Errorf("Blaum(17,2) = %v, want 4", got)
	}
	if got := Blaum(13, 3); got != 2 {
		t.Errorf("Blaum(13,3) = %v, want 2", got)
	}
	if got := Blaum(1, 4); got != 0 {
		t.Errorf("Blaum(1,4) = %v, want 0", got)
	}
}

func TestSeparatorReducesToBlaum(t *testing.T) {
	// Lemma 1 with |S| = 1 and |∂S| = 4d reduces to Eq. 1's (|P|−1)/2d.
	for _, d := range []int{1, 2, 3, 4, 5} {
		for _, sizeP := range []int{2, 9, 64} {
			lemma := Separator(1, sizeP, 4*d)
			blaum := Blaum(sizeP, d)
			if math.Abs(lemma-blaum) > 1e-12 {
				t.Errorf("d=%d |P|=%d: Lemma1=%v, Blaum=%v", d, sizeP, lemma, blaum)
			}
		}
	}
}

func TestSingletonBoundEqualsBlaum(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 2}, {5, 3}, {3, 4}} {
		tr := torus.New(c.k, c.d)
		p := build(t, placement.Linear{C: 0}, tr)
		got := SingletonBound(p)
		want := Blaum(p.Size(), c.d)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("T^%d_%d: SingletonBound=%v, Blaum=%v", c.d, c.k, got, want)
		}
	}
}

func TestBoundaryEdgesSingleton(t *testing.T) {
	// A single node has 2d out-edges and 2d in-edges: |∂S| = 4d.
	for _, c := range []struct{ k, d int }{{3, 1}, {4, 2}, {5, 3}} {
		tr := torus.New(c.k, c.d)
		inS := make([]bool, tr.Nodes())
		inS[0] = true
		if got := BoundaryEdges(tr, inS); got != 4*c.d {
			t.Errorf("T^%d_%d: boundary of singleton = %d, want %d", c.d, c.k, got, 4*c.d)
		}
	}
}

func TestBoundaryEdgesSlab(t *testing.T) {
	// One subtorus layer: crossing edges to both neighbor layers,
	// 4·k^{d−1} directed edges (2·k^{d−1} per side).
	tr := torus.New(5, 3)
	inS := make([]bool, tr.Nodes())
	tr.ForEachSubtorusNode(torus.Subtorus{Dim: 0, Value: 2}, func(u torus.Node) { inS[u] = true })
	if got, want := BoundaryEdges(tr, inS), 4*25; got != want {
		t.Errorf("slab boundary = %d, want %d", got, want)
	}
}

func TestBisectionFormula(t *testing.T) {
	if got := Bisection(16, 64); got != 2*64.0/64 {
		t.Errorf("Bisection(16,64) = %v, want 2", got)
	}
	if !math.IsInf(Bisection(4, 0), 1) {
		t.Error("zero bisection width should give +Inf")
	}
}

func TestSeparatorInfinite(t *testing.T) {
	if !math.IsInf(Separator(2, 4, 0), 1) {
		t.Error("zero boundary should give +Inf")
	}
}

func TestImprovedBoundBeatsBlaumForLargeD(t *testing.T) {
	// §4: for a linear placement (c = 1) the improved bound k^{d−1}/8 must
	// dominate Blaum's k^{d−1}/2d once 2d > 8, i.e. d ≥ 5.
	k := 4
	for d := 5; d <= 8; d++ {
		sizeP := int(math.Pow(float64(k), float64(d-1)))
		if Improved(1, k, d) <= Blaum(sizeP, d) {
			t.Errorf("d=%d: improved %v not above Blaum %v", d, Improved(1, k, d), Blaum(sizeP, d))
		}
	}
	// And for small d Blaum can win, which is why §4 matters for large d.
	if Improved(1, 4, 2) >= Blaum(4, 2) {
		t.Skip("small-d relation depends on k; informational only")
	}
}

func TestCorollaryCeiling(t *testing.T) {
	if got := CorollaryBisectionCeiling(4, 3); got != 6*3*16 {
		t.Errorf("ceiling = %v, want 288", got)
	}
	if got := Theorem1Width(4, 3); got != 64 {
		t.Errorf("Theorem1Width = %v, want 64", got)
	}
}

func TestMaxPlacementSize(t *testing.T) {
	// Eq. 9 with c1 = 1: |P| ≤ 12·d·k^{d−1}.
	if got := MaxPlacementSize(1, 4, 2); got != 96 {
		t.Errorf("MaxPlacementSize = %v, want 96", got)
	}
	// A linear placement respects the ceiling by a wide margin.
	tr := torus.New(8, 3)
	p := build(t, placement.Linear{C: 0}, tr)
	if float64(p.Size()) > MaxPlacementSize(1, 8, 3) {
		t.Error("linear placement exceeds the Eq. 9 ceiling")
	}
}

func TestSubsetBound(t *testing.T) {
	tr := torus.New(4, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	half := p.Nodes()[:p.Size()/2]
	b := SubsetBound(p, half)
	if b <= 0 {
		t.Errorf("subset bound %v should be positive", b)
	}
}

func TestSubsetBoundPanicsOnNonProcessor(t *testing.T) {
	tr := torus.New(4, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	var bad torus.Node = -1
	tr.ForEachNode(func(u torus.Node) {
		if bad < 0 && !p.Contains(u) {
			bad = u
		}
	})
	defer func() {
		if recover() == nil {
			t.Error("SubsetBound should panic for non-processor nodes")
		}
	}()
	SubsetBound(p, []torus.Node{bad})
}

func TestBestPrefixBoundAtLeastBlaum(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 2}, {5, 2}, {4, 3}} {
		tr := torus.New(c.k, c.d)
		p := build(t, placement.Linear{C: 0}, tr)
		if got, blaum := BestPrefixBound(p), Blaum(p.Size(), c.d); got < blaum {
			t.Errorf("T^%d_%d: BestPrefixBound %v below Blaum %v", c.d, c.k, got, blaum)
		}
	}
}

func TestImprovedBoundScalesWithC(t *testing.T) {
	// E_max ≥ c²k^{d−1}/8: quadratic in the density constant c.
	base := Improved(1, 6, 3)
	if got := Improved(2, 6, 3); math.Abs(got-4*base) > 1e-12 {
		t.Errorf("Improved(2)=%v, want 4×Improved(1)=%v", got, 4*base)
	}
	if got := Improved(3, 6, 3); math.Abs(got-9*base) > 1e-12 {
		t.Errorf("Improved(3)=%v, want 9×Improved(1)=%v", got, 9*base)
	}
	if got := Improved(2, 4, 3); got != 4.0*16/8 {
		t.Errorf("Improved(2,4,3) = %v, want c²k^{d−1}/8 = 8", got)
	}
}
