package placement

import (
	"slices"
	"testing"
	"unsafe"

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

// TestTranslationStabilizerLinear checks the paper's count: a linear
// placement with a unit coefficient is stabilized by exactly the k^{d−1}
// translations with zero weighted coordinate sum.
func TestTranslationStabilizerLinear(t *testing.T) {
	for _, tc := range []struct{ k, d int }{{4, 2}, {5, 2}, {4, 3}, {3, 3}, {6, 2}} {
		tr := torus.New(tc.k, tc.d)
		p := buildOrDie(t, Linear{C: 0}, tr)
		stab := p.TranslationStabilizer()
		want := 1
		for i := 0; i < tc.d-1; i++ {
			want *= tc.k
		}
		if len(stab) != want {
			t.Fatalf("T^%d_%d linear: %d stabilizers, want k^(d-1)=%d", tc.d, tc.k, len(stab), want)
		}
		for j := range stab[0] {
			if stab[0][j] != 0 {
				t.Fatalf("first stabilizer %v is not the identity", stab[0])
			}
		}
		for _, off := range stab {
			sum := 0
			for _, c := range off {
				sum += c
			}
			if torus.Mod(sum, tc.k) != 0 {
				t.Fatalf("stabilizer %v has coordinate sum %d ≢ 0 (mod %d)", off, sum, tc.k)
			}
			if !p.StabilizedBy(off) {
				t.Fatalf("reported stabilizer %v does not stabilize", off)
			}
		}
	}
}

// TestTranslationStabilizerMultiLinear checks that a union of t parallel
// linear layers keeps the full k^{d−1} subgroup (each hyperplane maps onto a
// hyperplane of the same residue class).
func TestTranslationStabilizerMultiLinear(t *testing.T) {
	tr := torus.New(6, 2)
	p := buildOrDie(t, MultipleLinear{T: 2}, tr)
	stab := p.TranslationStabilizer()
	// Offsets with Σ t_i ≡ 0 always stabilize; offsets with Σ t_i ≡ 3
	// permute the two residue classes {0, 3} among themselves too.
	if len(stab) < 6 {
		t.Fatalf("multi-linear T=2 on T^2_6: %d stabilizers, want >= k^(d-1)=6", len(stab))
	}
	for _, off := range stab {
		if !p.StabilizedBy(off) {
			t.Fatalf("reported stabilizer %v does not stabilize", off)
		}
	}
}

// TestTranslationStabilizerFull checks the whole translation group
// stabilizes the fully populated torus.
func TestTranslationStabilizerFull(t *testing.T) {
	tr := torus.New(3, 3)
	p := buildOrDie(t, Full{}, tr)
	if got, want := len(p.TranslationStabilizer()), tr.Nodes(); got != want {
		t.Fatalf("full torus: %d stabilizers, want %d", got, want)
	}
}

// TestTranslationStabilizerTrivial checks unstructured placements fall back
// to the identity-only stabilizer (so the load engine must use the generic
// path).
func TestTranslationStabilizerTrivial(t *testing.T) {
	tr := torus.New(5, 2)
	random := buildOrDie(t, Random{Count: 7, Seed: 3}, tr)
	stab := random.TranslationStabilizer()
	if len(stab) != 1 {
		t.Fatalf("random placement: %d stabilizers, want identity only", len(stab))
	}
	asym := New(tr, []torus.Node{0, 1, 2, 5}, "asym")
	if got := len(asym.TranslationStabilizer()); got != 1 {
		t.Fatalf("asymmetric explicit placement: %d stabilizers, want 1", got)
	}
}

// TestTranslationStabilizerClosure checks the returned set is a group:
// closed under composition (offset addition mod k).
func TestTranslationStabilizerClosure(t *testing.T) {
	tr := torus.New(4, 3)
	p := buildOrDie(t, Linear{C: 1}, tr)
	stab := p.TranslationStabilizer()
	key := func(off []int) int {
		idx := 0
		for _, c := range off {
			idx = idx*tr.K() + torus.Mod(c, tr.K())
		}
		return idx
	}
	members := make(map[int]bool, len(stab))
	for _, off := range stab {
		members[key(off)] = true
	}
	sum := make([]int, tr.D())
	for _, a := range stab {
		for _, b := range stab {
			for j := range sum {
				sum[j] = torus.Mod(a[j]+b[j], tr.K())
			}
			if !members[key(sum)] {
				t.Fatalf("stabilizer not closed: %v + %v = %v missing", a, b, sum)
			}
		}
	}
}

// TestTranslationStabilizerMatchesBruteForce checks the stabilizer against
// every offset of the torus: the same offsets, ordered by the node index
// of the first processor's image, packed back to back in one array.
func TestTranslationStabilizerMatchesBruteForce(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 1}, {4, 2}, {6, 2}, {3, 3}, {4, 3}} {
		tr := torus.New(c.k, c.d)
		specs := []Spec{Linear{C: 1}, MultipleLinear{T: 2}, Full{}, LayerCluster{Dim: 0}, Random{Count: tr.Nodes() / 2, Seed: 5}}
		for _, spec := range specs {
			p, err := spec.Build(tr)
			if err != nil {
				continue
			}
			var want [][]int
			for img := 0; img < tr.Nodes(); img++ {
				// The offset taking the first processor to img.
				off := tr.Coords(torus.Node(img))
				first := tr.Coords(p.Nodes()[0])
				for j := range off {
					off[j] = (off[j] - first[j] + c.k) % c.k
				}
				if p.StabilizedBy(off) {
					want = append(want, off)
				}
			}
			got := p.TranslationStabilizer()
			if len(got) != len(want) {
				t.Fatalf("%s on %s: %d offsets, want %d", p.Name(), tr, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%s on %s: offset %d is %v, want %v", p.Name(), tr, i, got[i], want[i])
				}
				if i > 0 && unsafe.Pointer(&got[i][0]) != unsafe.Add(unsafe.Pointer(&got[i-1][0]), c.d*int(unsafe.Sizeof(0))) {
					t.Fatalf("%s on %s: offset %d does not follow offset %d in one backing array", p.Name(), tr, i, i-1)
				}
			}
		}
	}
}

// structuredSpecs are the linear-family specs on T^d_k whose builders
// record their translation group: linear:C with all-ones and with
// coefficient vectors holding a unit, diagonal:S, multi:T:S for every
// T = 1…k, and the full torus.
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
	return specs
}

// checkStructuredStabilizer builds spec on tr and checks the group its
// builder recorded against computeStabilizer's search over the same
// processors, element for element and in the same order, and its order
// against GroupOrder.
func checkStructuredStabilizer(t *testing.T, spec Spec, tr *torus.Torus) {
	t.Helper()
	p, err := spec.Build(tr)
	if err != nil {
		t.Fatalf("%s on %s: %v", spec.Name(), tr, err)
	}
	if p.classes == 0 {
		t.Fatalf("%s on %s: the builder recorded no group", spec.Name(), tr)
	}
	got := p.TranslationStabilizer()
	searched := New(tr, p.Nodes(), "searched")
	want := searched.TranslationStabilizer()
	if len(got) != len(want) {
		t.Fatalf("%s on %s: recorded group has %d offsets, search finds %d", spec.Name(), tr, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s on %s: offset %d is %v, search gives %v", spec.Name(), tr, i, got[i], want[i])
		}
	}
	if order, ok := GroupOrder(spec, tr); !ok || order != len(want) {
		t.Fatalf("%s on %s: GroupOrder = %d, %v; the group has %d offsets", spec.Name(), tr, order, ok, len(want))
	}
}

// TestStructuredStabilizerMatchesSearch checks every linear-family builder's
// recorded group against the search on T²₂…T⁴₅.
func TestStructuredStabilizerMatchesSearch(t *testing.T) {
	for k := 2; k <= 5; k++ {
		for d := 2; d <= 4; d++ {
			tr := torus.New(k, d)
			for _, spec := range structuredSpecs(k, d) {
				checkStructuredStabilizer(t, spec, tr)
			}
		}
	}
	if _, ok := GroupOrder(Random{Count: 4, Seed: 1}, torus.New(4, 2)); ok {
		t.Error("GroupOrder claims a group for a random spec")
	}
}

// FuzzStructuredStabilizer checks the recorded group against the search
// on random small tori, k ∈ 2..7 and d ∈ 1..4, over linear specs with a
// unit among random coefficients, shifted diagonals and multi-linear
// specs of every T = 1…k.
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
		switch kind % 3 {
		case 0:
			coeffs := make([]int, d)
			for j := range coeffs {
				coeffs[j] = int(int8(salt >> (4 * j)))
			}
			coeffs[int(salt)%d] = 1 + k*int(shift%7)
			spec = Linear{C: int(shift), Coeffs: coeffs}
		case 1:
			spec = ShiftedDiagonal{Shift: int(shift)}
		default:
			spec = MultipleLinear{T: 1 + int(salt)%k, Start: int(shift)}
		}
		checkStructuredStabilizer(t, spec, tr)
	})
}
