package placement

import (
	"slices"
	"testing"

	"torusnet/internal/torus"
)

func buildOrDie(t *testing.T, s Spec, tr *torus.Torus) *Placement {
	t.Helper()
	p, err := s.Build(tr)
	if err != nil {
		t.Fatalf("%s on %s: %v", s.Name(), tr, err)
	}
	return p
}

// cosetsOf returns p's coset labels and their count.
func cosetsOf(p *Placement) ([]int32, int) {
	label := make([]int32, p.Torus().Nodes())
	return label, p.Cosets(label)
}

// zeroSum reports whether offset's coordinate sum is 0 mod k.
func zeroSum(offset []int, k int) bool {
	sum := 0
	for _, c := range offset {
		sum += c
	}
	return sum%k == 0
}

// TestTranslationStabilizerLinear checks the paper's count: a linear
// placement with a unit coefficient is fixed by exactly the k^{d−1}
// translations with zero weighted coordinate sum, every one of them in
// the group its builder records.
func TestTranslationStabilizerLinear(t *testing.T) {
	for _, tc := range []struct{ k, d int }{{4, 2}, {5, 2}, {4, 3}, {3, 3}, {6, 2}} {
		tr := torus.New(tc.k, tc.d)
		p := buildOrDie(t, Linear{C: 0}, tr)
		want := tr.Nodes() / tc.k
		if got := p.GroupOrder(); got != want {
			t.Fatalf("%s: group order %d, want k^(d-1)=%d", tr, got, want)
		}
		label, _ := cosetsOf(p)
		for v := 0; v < tr.Nodes(); v++ {
			off := tr.Coords(torus.Node(v))
			if fixes := p.StabilizedBy(off); fixes != zeroSum(off, tc.k) || fixes != (label[v] == label[0]) {
				t.Fatalf("%s: offset %v fixes the placement: %v; zero sum: %v; in the recorded group: %v",
					tr, off, fixes, zeroSum(off, tc.k), label[v] == label[0])
			}
		}
	}
}

// TestTranslationStabilizerMultiLinear checks that a union of t < k
// parallel linear layers keeps exactly the k^{d−1} zero-sum translations:
// a window of fewer than k residues moves whenever the sum does.
func TestTranslationStabilizerMultiLinear(t *testing.T) {
	tr := torus.New(6, 2)
	p := buildOrDie(t, MultipleLinear{T: 2}, tr)
	if got := p.GroupOrder(); got != 6 {
		t.Fatalf("multi-linear T=2 on T^2_6: group order %d, want k^(d-1)=6", got)
	}
	for v := 0; v < tr.Nodes(); v++ {
		off := tr.Coords(torus.Node(v))
		if p.StabilizedBy(off) != zeroSum(off, 6) {
			t.Fatalf("offset %v fixes the placement: %v, want %v", off, p.StabilizedBy(off), zeroSum(off, 6))
		}
	}
}

// TestTranslationStabilizerFull checks the whole translation group is
// recorded for the fully populated torus, as one coset.
func TestTranslationStabilizerFull(t *testing.T) {
	tr := torus.New(3, 3)
	p := buildOrDie(t, Full{}, tr)
	if got, want := p.GroupOrder(), tr.Nodes(); got != want {
		t.Fatalf("full torus: group order %d, want %d", got, want)
	}
	if _, cosets := cosetsOf(p); cosets != 1 {
		t.Fatalf("full torus: %d cosets, want 1", cosets)
	}
}

// TestTranslationStabilizerTrivial checks that placements no builder
// records a group for have the trivial one and no cosets to label, so the
// load engine walks their pairs.
func TestTranslationStabilizerTrivial(t *testing.T) {
	tr := torus.New(5, 2)
	for _, p := range []*Placement{
		buildOrDie(t, Random{Count: 7, Seed: 3}, tr),
		New(tr, []torus.Node{0, 1, 2, 5}, "asym"),
		buildOrDie(t, Explicit{Label: "line", Coords: [][]int{{0, 0}, {1, 4}, {2, 3}, {3, 2}, {4, 1}}}, tr),
	} {
		checkRecordedCosets(t, p)
	}
	for _, spec := range []Spec{Random{Count: 4, Seed: 1}, Explicit{Label: "one", Coords: [][]int{{1, 1}}}} {
		if got := GroupOrder(spec, tr); got != 1 {
			t.Errorf("GroupOrder(%s) = %d, want 1", spec.Name(), got)
		}
	}
}

// TestTranslationStabilizerClosure checks the recorded group, the offsets
// labelled like the origin, is a group: closed under composition (offset
// addition mod k).
func TestTranslationStabilizerClosure(t *testing.T) {
	tr := torus.New(4, 3)
	p := buildOrDie(t, Linear{C: 1, Coeffs: []int{3, 2, 1}}, tr)
	label, _ := cosetsOf(p)
	var group []torus.Node
	for v := range label {
		if label[v] == label[0] {
			group = append(group, torus.Node(v))
		}
	}
	for _, a := range group {
		for _, b := range group {
			if sum := tr.Translate(a, tr.Coords(b)); label[sum] != label[0] {
				t.Fatalf("group not closed: %v + %v = %v missing", tr.Coords(a), tr.Coords(b), tr.Coords(sum))
			}
		}
	}
}

// checkRecordedCosets checks the translation group p's builder recorded
// against brute force over every offset of its torus:
//   - Cosets labels the nodes with count labels, each held by exactly
//     GroupOrder nodes, and every translation in the group (the offsets
//     labelled like the origin) keeps every node's label, so the labels
//     are the group's cosets;
//   - a recorded group that is not the whole torus labels node u with
//     Σ c_j·u_j mod k;
//   - every coset lies wholly inside or wholly outside p;
//   - an offset fixes p (StabilizedBy) exactly when it lies in the
//     recorded group.
//
// A placement whose builder recorded no group must report order 1 and
// refuse to label cosets.
func checkRecordedCosets(t *testing.T, p *Placement) {
	t.Helper()
	tr := p.Torus()
	order := p.GroupOrder()
	if p.classes == 0 {
		if order != 1 {
			t.Fatalf("%s on %s: no recorded group, but order %d", p.Name(), tr, order)
		}
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on %s: Cosets labelled a placement with no recorded group", p.Name(), tr)
			}
		}()
		cosetsOf(p)
		return
	}
	label, cosets := cosetsOf(p)
	if cosets*order != tr.Nodes() {
		t.Fatalf("%s on %s: %d cosets of a group of order %d", p.Name(), tr, cosets, order)
	}
	held := make([]int, cosets)
	inside := make([]int, cosets)
	for u, c := range label {
		if c < 0 || int(c) >= cosets {
			t.Fatalf("%s on %s: node %d labelled %d of %d cosets", p.Name(), tr, u, c, cosets)
		}
		held[c]++
		if p.Contains(torus.Node(u)) {
			inside[c]++
		}
		if p.classes < tr.K() {
			r := 0
			for j, x := range tr.Coords(torus.Node(u)) {
				r += p.coeffs[j] * x
			}
			if int(c) != r%tr.K() {
				t.Fatalf("%s on %s: node %d labelled %d, residue %d", p.Name(), tr, u, c, r%tr.K())
			}
		}
	}
	for c := range held {
		if held[c] != order || inside[c] != 0 && inside[c] != order {
			t.Fatalf("%s on %s: coset %d holds %d nodes, %d of them processors; the group has order %d",
				p.Name(), tr, c, held[c], inside[c], order)
		}
	}
	for v := 0; v < tr.Nodes(); v++ {
		off := tr.Coords(torus.Node(v))
		inGroup := label[v] == label[0]
		if inGroup {
			for u := range label {
				if label[tr.Translate(torus.Node(u), off)] != label[u] {
					t.Fatalf("%s on %s: offset %v of the group moves node %d to another coset", p.Name(), tr, off, u)
				}
			}
		}
		if fixes := p.StabilizedBy(off); fixes != inGroup {
			t.Fatalf("%s on %s: offset %v fixes the placement: %v; in the recorded group: %v", p.Name(), tr, off, fixes, inGroup)
		}
	}
}

// TestTranslationStabilizerMatchesBruteForce checks the recorded cosets
// against every offset of the torus, and that a random placement records
// no group.
func TestTranslationStabilizerMatchesBruteForce(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 1}, {4, 2}, {6, 2}, {3, 3}, {4, 3}} {
		tr := torus.New(c.k, c.d)
		specs := []Spec{Linear{C: 1}, MultipleLinear{T: 2}, Full{}, LayerCluster{Dim: 0}, Random{Count: tr.Nodes() / 2, Seed: 5}}
		for _, spec := range specs {
			p, err := spec.Build(tr)
			if err != nil {
				continue
			}
			checkRecordedCosets(t, p)
		}
	}
}

// structuredSpecs are the specs on T^d_k whose builders record their
// translation group: linear:C with all-ones and with coefficient vectors
// holding a unit, diagonal:S, multi:T:S for every T = 1…k, the layer
// cluster along every dimension and the full torus.
func structuredSpecs(k, d int) []Spec {
	specs := []Spec{Linear{C: k - 1}, ShiftedDiagonal{Shift: 1}, ShiftedDiagonal{Shift: -3}, Full{}}
	for salt := 0; salt < 4; salt++ {
		c := coeffVector(d, salt, k)
		c[salt%d] = 1 + 2*salt*k // a unit mod k, so the spec fits
		specs = append(specs, Linear{C: salt, Coeffs: c})
	}
	for tc := 1; tc <= k; tc++ {
		specs = append(specs, MultipleLinear{T: tc, Start: tc - 2})
	}
	for dim := 0; dim < d; dim++ {
		specs = append(specs, LayerCluster{Dim: dim})
	}
	return specs
}

// checkStructured builds spec on tr, checks that its builder recorded a
// group of the order GroupOrder reads off the spec, and checks that group
// against brute force.
func checkStructured(t *testing.T, spec Spec, tr *torus.Torus) {
	t.Helper()
	p := buildOrDie(t, spec, tr)
	if p.classes == 0 {
		t.Fatalf("%s on %s: the builder recorded no group", spec.Name(), tr)
	}
	if got, want := GroupOrder(spec, tr), p.GroupOrder(); got != want {
		t.Fatalf("%s on %s: GroupOrder reads %d off the spec, %d off the placement", spec.Name(), tr, got, want)
	}
	checkRecordedCosets(t, p)
}

// TestStructuredStabilizerMatchesBruteForce checks every builder that
// records a group against brute force on T¹₂…T⁴₅.
func TestStructuredStabilizerMatchesBruteForce(t *testing.T) {
	for k := 2; k <= 5; k++ {
		for d := 1; d <= 4; d++ {
			tr := torus.New(k, d)
			for _, spec := range structuredSpecs(k, d) {
				checkStructured(t, spec, tr)
			}
		}
	}
}

// FuzzStructuredStabilizer checks the recorded group against brute force
// on random small tori, k ∈ 2..7 and d ∈ 1..4, over linear specs with a
// unit among random coefficients, shifted diagonals, multi-linear specs
// of every T = 1…k and layer clusters along every dimension.
func FuzzStructuredStabilizer(f *testing.F) {
	for k := uint8(0); k < 6; k++ {
		for d := uint8(0); d < 4; d++ {
			for kind := uint8(0); kind < 3; kind++ {
				f.Add(k, d, kind, int16(k)*5-int16(d), uint32(k)*97+uint32(d))
			}
		}
	}
	f.Fuzz(func(t *testing.T, kRaw, dRaw, kind uint8, shift int16, salt uint32) {
		k, d := 2+int(kRaw%6), 1+int(dRaw%4)
		tr := torus.New(k, d)
		var spec Spec
		switch kind % 4 {
		case 0:
			coeffs := make([]int, d)
			for j := range coeffs {
				coeffs[j] = int(int8(salt >> (4 * j)))
			}
			coeffs[int(salt)%d] = 1 + k*int(shift%7)
			spec = Linear{C: int(shift), Coeffs: coeffs}
		case 1:
			spec = ShiftedDiagonal{Shift: int(shift)}
		case 2:
			spec = MultipleLinear{T: 1 + int(salt)%k, Start: int(shift)}
		default:
			spec = LayerCluster{Dim: int(salt) % d}
		}
		checkStructured(t, spec, tr)
	})
}

// TestLayerClusterNodes checks that LayerCluster, built as a hyperplane,
// places the nodes its definition names: the k^{d−2} smallest-index nodes
// of every layer along Dim (every node on a ring).
func TestLayerClusterNodes(t *testing.T) {
	for k := 2; k <= 6; k++ {
		for d := 1; d <= 4; d++ {
			tr := torus.New(k, d)
			perLayer := 1
			if d >= 2 {
				perLayer = tr.Nodes() / (k * k)
			}
			for dim := 0; dim < d; dim++ {
				var want []torus.Node
				for v := 0; v < k; v++ {
					taken := 0
					tr.ForEachSubtorusNode(torus.Subtorus{Dim: dim, Value: v}, func(u torus.Node) {
						if taken < perLayer {
							want = append(want, u)
							taken++
						}
					})
				}
				ref := New(tr, want, "reference")
				p := buildOrDie(t, LayerCluster{Dim: dim}, tr)
				if !slices.Equal(p.Nodes(), ref.Nodes()) {
					t.Fatalf("layercluster(dim=%d) on %s: nodes %v, want %v", dim, tr, p.Nodes(), ref.Nodes())
				}
				if size, _ := (LayerCluster{Dim: dim}).Size(tr); size != p.Size() {
					t.Fatalf("layercluster(dim=%d) on %s: Size %d, built %d", dim, tr, size, p.Size())
				}
			}
		}
	}
}
