package placement

import (
	"math"
	"testing"
	"testing/quick"

	"torusnet/internal/torus"
)

func mustBuild(t *testing.T, s Spec, tr *torus.Torus) *Placement {
	t.Helper()
	p, err := s.Build(tr)
	if err != nil {
		t.Fatalf("%s on %s: %v", s.Name(), tr, err)
	}
	return p
}

func TestLinearPlacementSize(t *testing.T) {
	for _, c := range []struct{ k, d int }{{3, 2}, {4, 2}, {8, 2}, {3, 3}, {5, 3}, {4, 4}, {3, 5}} {
		tr := torus.New(c.k, c.d)
		p := mustBuild(t, Linear{C: 0}, tr)
		want := tr.Nodes() / c.k // k^{d-1}
		if p.Size() != want {
			t.Errorf("T^%d_%d: linear placement size %d, want %d", c.d, c.k, p.Size(), want)
		}
	}
}

func TestLinearPlacementMembership(t *testing.T) {
	tr := torus.New(5, 3)
	p := mustBuild(t, Linear{C: 2}, tr)
	coords := make([]int, 3)
	tr.ForEachNode(func(u torus.Node) {
		tr.CoordsInto(u, coords)
		sum := (coords[0] + coords[1] + coords[2]) % 5
		if p.Contains(u) != (sum == 2) {
			t.Fatalf("node %v: Contains=%v but residue=%d", coords, p.Contains(u), sum)
		}
	})
}

func TestLinearPlacementUniform(t *testing.T) {
	for _, c := range []struct{ k, d int }{{3, 2}, {4, 3}, {5, 3}, {6, 2}} {
		tr := torus.New(c.k, c.d)
		p := mustBuild(t, Linear{C: 1}, tr)
		if !p.IsUniform() {
			t.Errorf("T^%d_%d: linear placement should be uniform", c.d, c.k)
		}
	}
}

func TestLinearWithGeneralCoeffs(t *testing.T) {
	tr := torus.New(5, 2)
	p := mustBuild(t, Linear{C: 0, Coeffs: []int{2, 3}}, tr)
	if p.Size() != 5 {
		t.Errorf("general-coefficient linear placement size %d, want 5", p.Size())
	}
	if !p.IsUniform() {
		t.Error("unit-coefficient linear placement should be uniform")
	}
}

func TestLinearRejectsNonUnitCoeffs(t *testing.T) {
	tr := torus.New(6, 2)
	if _, err := (Linear{C: 0, Coeffs: []int{2, 3}}).Build(tr); err == nil {
		t.Error("coefficients (2,3) mod 6 have no unit; Build should fail")
	}
	if _, err := (Linear{C: 0, Coeffs: []int{2, 5}}).Build(tr); err != nil {
		t.Errorf("coefficient 5 is a unit mod 6; Build should succeed: %v", err)
	}
}

func TestLinearRejectsWrongArity(t *testing.T) {
	tr := torus.New(4, 3)
	if _, err := (Linear{Coeffs: []int{1, 1}}).Build(tr); err == nil {
		t.Error("2 coefficients on a 3-dimensional torus should fail")
	}
}

func TestLinearResiduesPartitionTorus(t *testing.T) {
	tr := torus.New(4, 3)
	total := 0
	seen := make(map[torus.Node]bool)
	for c := 0; c < 4; c++ {
		p := mustBuild(t, Linear{C: c}, tr)
		total += p.Size()
		for _, u := range p.Nodes() {
			if seen[u] {
				t.Fatalf("node %d in two residue classes", u)
			}
			seen[u] = true
		}
	}
	if total != tr.Nodes() {
		t.Errorf("residue classes cover %d nodes, want %d", total, tr.Nodes())
	}
}

func TestMultipleLinearSize(t *testing.T) {
	tr := torus.New(6, 3)
	for tt := 1; tt <= 4; tt++ {
		p := mustBuild(t, MultipleLinear{Start: 0, T: tt}, tr)
		if p.Size() != tt*36 {
			t.Errorf("t=%d: size %d, want %d", tt, p.Size(), tt*36)
		}
		if !p.IsUniform() {
			t.Errorf("t=%d: multiple linear placement should be uniform", tt)
		}
	}
}

func TestMultipleLinearWraps(t *testing.T) {
	tr := torus.New(4, 2)
	p := mustBuild(t, MultipleLinear{Start: 3, T: 2}, tr)
	// Residues 3 and 0.
	a := mustBuild(t, Linear{C: 3}, tr)
	b := mustBuild(t, Linear{C: 0}, tr)
	if p.Size() != a.Size()+b.Size() {
		t.Errorf("wrapped multiple linear size %d, want %d", p.Size(), a.Size()+b.Size())
	}
	for _, u := range a.Nodes() {
		if !p.Contains(u) {
			t.Fatalf("node %d from residue 3 missing", u)
		}
	}
	for _, u := range b.Nodes() {
		if !p.Contains(u) {
			t.Fatalf("node %d from residue 0 missing", u)
		}
	}
}

func TestMultipleLinearRejectsBadT(t *testing.T) {
	tr := torus.New(4, 2)
	if _, err := (MultipleLinear{T: 0}).Build(tr); err == nil {
		t.Error("t=0 should fail")
	}
	if _, err := (MultipleLinear{T: 5}).Build(tr); err == nil {
		t.Error("t>k should fail")
	}
	if _, err := (MultipleLinear{T: 4}).Build(tr); err != nil {
		t.Errorf("t=k should build the full torus: %v", err)
	}
}

func TestShiftedDiagonalEqualsLinear(t *testing.T) {
	tr := torus.New(5, 3)
	sd := mustBuild(t, ShiftedDiagonal{Shift: 2}, tr)
	lin := mustBuild(t, Linear{C: 2}, tr)
	if sd.Size() != lin.Size() {
		t.Fatalf("sizes differ: %d vs %d", sd.Size(), lin.Size())
	}
	for _, u := range lin.Nodes() {
		if !sd.Contains(u) {
			t.Fatalf("shifted diagonal missing node %d", u)
		}
	}
}

func TestFullPlacement(t *testing.T) {
	tr := torus.New(4, 2)
	p := mustBuild(t, Full{}, tr)
	if p.Size() != 16 {
		t.Errorf("full placement size %d, want 16", p.Size())
	}
	if !p.IsUniform() {
		t.Error("full placement should be uniform")
	}
}

func TestRandomPlacementDeterministic(t *testing.T) {
	tr := torus.New(6, 2)
	a := mustBuild(t, Random{Count: 10, Seed: 42}, tr)
	b := mustBuild(t, Random{Count: 10, Seed: 42}, tr)
	if a.Size() != 10 || b.Size() != 10 {
		t.Fatalf("sizes: %d, %d", a.Size(), b.Size())
	}
	for i, u := range a.Nodes() {
		if b.Nodes()[i] != u {
			t.Fatal("same seed should give the same placement")
		}
	}
	c := mustBuild(t, Random{Count: 10, Seed: 43}, tr)
	same := true
	for i, u := range a.Nodes() {
		if c.Nodes()[i] != u {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical placements (suspicious)")
	}
}

func TestRandomPlacementBounds(t *testing.T) {
	tr := torus.New(3, 2)
	if _, err := (Random{Count: -1}).Build(tr); err == nil {
		t.Error("negative count should fail")
	}
	if _, err := (Random{Count: 10}).Build(tr); err == nil {
		t.Error("count > nodes should fail")
	}
	p := mustBuild(t, Random{Count: 9, Seed: 7}, tr)
	if p.Size() != 9 {
		t.Errorf("count=nodes should give the full torus, got %d", p.Size())
	}
}

func TestExplicitPlacement(t *testing.T) {
	tr := torus.New(3, 2)
	p := mustBuild(t, Explicit{Label: "fig1", Coords: [][]int{{0, 0}, {1, 1}, {2, 2}}}, tr)
	if p.Size() != 3 {
		t.Fatalf("size %d, want 3", p.Size())
	}
	if !p.Contains(tr.NodeAt([]int{1, 1})) {
		t.Error("missing (1,1)")
	}
	if _, err := (Explicit{Coords: [][]int{{0, 0, 0}}}).Build(tr); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestNewDeduplicates(t *testing.T) {
	tr := torus.New(3, 2)
	p := New(tr, []torus.Node{1, 1, 2, 2, 2}, "dup")
	if p.Size() != 2 {
		t.Errorf("size %d, want 2 after dedup", p.Size())
	}
}

func TestPairs(t *testing.T) {
	tr := torus.New(4, 2)
	p := mustBuild(t, Linear{C: 0}, tr)
	if p.Pairs() != 4*3 {
		t.Errorf("Pairs() = %d, want 12", p.Pairs())
	}
}

func TestUniformAlong(t *testing.T) {
	tr := torus.New(4, 2)
	// A column placement: uniform along dim 1, not along dim 0.
	p := New(tr, []torus.Node{
		tr.NodeAt([]int{0, 0}), tr.NodeAt([]int{0, 1}),
		tr.NodeAt([]int{0, 2}), tr.NodeAt([]int{0, 3}),
	}, "column")
	if !p.UniformAlong(1) {
		t.Error("column should be uniform along dim 1")
	}
	if p.UniformAlong(0) {
		t.Error("column should not be uniform along dim 0")
	}
	if p.IsUniform() {
		t.Error("column should not be fully uniform")
	}
}

func TestLinearStabilizedByZeroSumTranslations(t *testing.T) {
	tr := torus.New(5, 3)
	p := mustBuild(t, Linear{C: 0}, tr)
	if !p.StabilizedBy([]int{1, 2, 2}) { // 1+2+2 = 5 ≡ 0
		t.Error("linear placement should be stabilized by zero-sum offsets")
	}
	if p.StabilizedBy([]int{1, 0, 0}) {
		t.Error("offset with sum 1 should move the placement")
	}
}

func TestLinearUniformityProperty(t *testing.T) {
	fn := func(kRaw, dRaw, cRaw uint8) bool {
		k := int(kRaw%6) + 2
		d := int(dRaw%3) + 2 // uniformity is only meaningful for d >= 2
		c := int(cRaw) % k
		tr := torus.New(k, d)
		p, err := Linear{C: c}.Build(tr)
		if err != nil {
			return false
		}
		if p.Size()*k != tr.Nodes() {
			return false
		}
		return p.IsUniform()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCountInSubtorusLinear(t *testing.T) {
	tr := torus.New(6, 3)
	p := mustBuild(t, Linear{C: 3}, tr)
	// Each principal subtorus must hold k^{d-2} = 6 processors.
	for dim := 0; dim < 3; dim++ {
		for v := 0; v < 6; v++ {
			if got := p.CountInSubtorus(torus.Subtorus{Dim: dim, Value: v}); got != 6 {
				t.Fatalf("dim=%d v=%d: %d processors, want 6", dim, v, got)
			}
		}
	}
}

func TestSpecNames(t *testing.T) {
	names := map[string]Spec{
		"linear(c=3)":              Linear{C: 3},
		"multilinear(t=2,start=1)": MultipleLinear{Start: 1, T: 2},
		"full":                     Full{},
		"random(n=5,seed=9)":       Random{Count: 5, Seed: 9},
		"shifted-diagonal(1)":      ShiftedDiagonal{Shift: 1},
	}
	for want, spec := range names {
		if got := spec.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestLayerClusterSizeAndUniformity(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 2}, {6, 2}, {4, 3}, {5, 3}} {
		tr := torus.New(c.k, c.d)
		p := mustBuild(t, LayerCluster{Dim: 0}, tr)
		want := tr.Nodes() / c.k
		if p.Size() != want {
			t.Errorf("T^%d_%d: size %d, want %d", c.d, c.k, p.Size(), want)
		}
		if !p.UniformAlong(0) {
			t.Errorf("T^%d_%d: should be uniform along dim 0", c.d, c.k)
		}
		if p.UniformAlong(c.d - 1) {
			t.Errorf("T^%d_%d: clustered placement should not be uniform along the last dim", c.d, c.k)
		}
		if p.IsUniform() {
			t.Errorf("T^%d_%d: layer cluster must not be fully uniform", c.d, c.k)
		}
	}
}

func TestLayerClusterRejectsBadDim(t *testing.T) {
	tr := torus.New(4, 2)
	if _, err := (LayerCluster{Dim: 2}).Build(tr); err == nil {
		t.Error("out-of-range dimension should fail")
	}
	if _, err := (LayerCluster{Dim: -1}).Build(tr); err == nil {
		t.Error("negative dimension should fail")
	}
}

func TestLayerClusterName(t *testing.T) {
	if (LayerCluster{Dim: 1}).Name() != "layercluster(dim=1)" {
		t.Error("name mismatch")
	}
}

func TestUniformityDeviation(t *testing.T) {
	tr := torus.New(6, 2)
	lin := mustBuild(t, Linear{C: 0}, tr)
	if got := lin.UniformityDeviation(); got != 0 {
		t.Errorf("linear deviation %v, want 0", got)
	}
	cluster := mustBuild(t, LayerCluster{Dim: 0}, tr)
	if got := cluster.UniformityDeviation(); got <= 0 {
		t.Errorf("cluster deviation %v, want > 0", got)
	}
	// A layer cluster puts everything in one row: deviation = (k−1).
	if got := cluster.UniformityDeviation(); got != 5 {
		t.Errorf("cluster deviation %v, want 5", got)
	}
	empty := New(tr, nil, "empty")
	if empty.UniformityDeviation() != 0 {
		t.Error("empty deviation should be 0")
	}
}

// TestLayerCountsMatchSubtorusWalk checks the cached layer counts behind
// CountInSubtorus, UniformAlong, IsUniform and UniformityDeviation against
// their definition: a walk over every node of every principal subtorus.
func TestLayerCountsMatchSubtorusWalk(t *testing.T) {
	for _, c := range []struct{ k, d int }{{2, 1}, {5, 1}, {4, 2}, {6, 2}, {3, 3}, {4, 3}, {3, 4}} {
		tr := torus.New(c.k, c.d)
		specs := []Spec{Linear{C: 1}, MultipleLinear{T: 2}, Full{}, LayerCluster{Dim: c.d - 1}, ShiftedDiagonal{Shift: 1}}
		for seed := int64(0); seed < 4; seed++ {
			specs = append(specs, Random{Count: int(seed) * tr.Nodes() / 4, Seed: seed}, Random{Count: tr.Nodes() / c.k, Seed: seed})
		}
		for _, spec := range specs {
			p, err := spec.Build(tr)
			if err != nil {
				continue // e.g. a multiple-linear spacing the torus does not admit
			}
			mean := float64(p.Size()) / float64(c.k)
			uniform, worst := p.Size()%c.k == 0, 0.0
			for dim := 0; dim < c.d; dim++ {
				along := p.Size()%c.k == 0
				for v := 0; v < c.k; v++ {
					s := torus.Subtorus{Dim: dim, Value: v}
					walk := 0
					tr.ForEachSubtorusNode(s, func(u torus.Node) {
						if p.Contains(u) {
							walk++
						}
					})
					if got := p.CountInSubtorus(s); got != walk {
						t.Fatalf("%s on %s: subtorus %+v holds %d, walk counts %d", p.Name(), tr, s, got, walk)
					}
					if got := p.CountInSubtorus(torus.Subtorus{Dim: dim, Value: v - c.k}); got != walk {
						t.Fatalf("%s on %s: unwrapped value %d counts %d, want %d", p.Name(), tr, v-c.k, got, walk)
					}
					along = along && float64(walk) == mean
					if dev := math.Abs(float64(walk) - mean); dev > worst {
						worst = dev
					}
				}
				if got := p.UniformAlong(dim); got != along {
					t.Fatalf("%s on %s: UniformAlong(%d) = %v, want %v", p.Name(), tr, dim, got, along)
				}
				uniform = uniform && along
			}
			if got := p.IsUniform(); got != uniform {
				t.Fatalf("%s on %s: IsUniform() = %v, want %v", p.Name(), tr, got, uniform)
			}
			if p.Size() > 0 {
				if got := p.UniformityDeviation(); got != worst/mean {
					t.Fatalf("%s on %s: UniformityDeviation() = %v, want %v", p.Name(), tr, got, worst/mean)
				}
			}
		}
	}
}

func TestCountInSubtorusPanicsOnBadDim(t *testing.T) {
	p := mustBuild(t, Linear{C: 0}, torus.New(4, 2))
	for _, dim := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dimension %d: want a panic", dim)
				}
			}()
			p.CountInSubtorus(torus.Subtorus{Dim: dim})
		}()
	}
}
