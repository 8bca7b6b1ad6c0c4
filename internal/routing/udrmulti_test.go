package routing

import (
	"math"
	"math/rand"
	"testing"

	"torusnet/internal/torus"
)

func TestUDRMultiPathCount(t *testing.T) {
	tr := torus.New(4, 3)
	p := tr.NodeAt([]int{0, 0, 0})
	cases := []struct {
		q    []int
		want float64 // s! · 2^T
	}{
		{[]int{1, 0, 0}, 1},
		{[]int{2, 0, 0}, 2},  // 1 dim, tied
		{[]int{1, 1, 0}, 2},  // 2 dims, no ties
		{[]int{2, 1, 0}, 4},  // 2 dims, 1 tie
		{[]int{2, 2, 0}, 8},  // 2 dims, 2 ties
		{[]int{2, 2, 2}, 48}, // 3 dims, 3 ties: 6·8
		{[]int{1, 1, 1}, 6},
	}
	for _, c := range cases {
		if got := (UDRMulti{}).PathCount(tr, p, tr.NodeAt(c.q)); got != c.want {
			t.Errorf("count to %v = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestUDRMultiEnumerationMatchesCountAndValidates(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 2}, {4, 3}, {6, 2}, {5, 3}} {
		tr := torus.New(c.k, c.d)
		for _, pair := range samplePairs(tr, 12, int64(c.k*c.d)) {
			p, q := pair[0], pair[1]
			paths := enumerate(UDRMulti{}, tr, p, q)
			if want := (UDRMulti{}).PathCount(tr, p, q); float64(len(paths)) != want {
				t.Fatalf("T^%d_%d %v->%v: %d paths enumerated, count says %v",
					c.d, c.k, tr.Coords(p), tr.Coords(q), len(paths), want)
			}
			for _, pp := range paths {
				if err := pp.Validate(tr, q); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestUDRMultiAccumulateMatchesEnumeration(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 2}, {4, 3}, {6, 2}} {
		tr := torus.New(c.k, c.d)
		sc := NewPairScratch(tr)
		loads := make([]float64, tr.Edges())
		for _, pair := range samplePairs(tr, 12, 77) {
			p, q := pair[0], pair[1]
			want := expectationByEnumeration(UDRMulti{}, tr, p, q, 1)
			got := expectationByAccumulate(UDRMulti{}, tr, p, q, 1, loads, sc)
			mapsClose(t, got, want, "UDR-multi")
		}
	}
}

func TestUDRMultiSupersetOfUDR(t *testing.T) {
	// Every UDR path is a UDR-multi path.
	tr := torus.New(4, 2)
	p := tr.NodeAt([]int{0, 0})
	q := tr.NodeAt([]int{2, 1})
	multiSet := make(map[string]bool)
	UDRMulti{}.ForEachPath(tr, p, q, func(pp Path) bool {
		multiSet[pathKey(pp)] = true
		return true
	})
	UDR{}.ForEachPath(tr, p, q, func(pp Path) bool {
		if !multiSet[pathKey(pp)] {
			t.Errorf("UDR path missing from UDR-multi set")
		}
		return true
	})
}

func pathKey(p Path) string {
	key := make([]byte, 0, len(p.Edges)*4)
	for _, e := range p.Edges {
		key = append(key, byte(e), byte(e>>8), byte(e>>16), byte(e>>24))
	}
	return string(key)
}

func TestUDRMultiSampleIsValid(t *testing.T) {
	tr := torus.New(4, 3)
	rng := rand.New(rand.NewSource(5))
	for _, pair := range samplePairs(tr, 20, 9) {
		pp := (UDRMulti{}).SamplePath(tr, pair[0], pair[1], rng)
		if err := pp.Validate(tr, pair[1]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUDRMultiMassConservation(t *testing.T) {
	tr := torus.New(4, 3)
	for _, pair := range samplePairs(tr, 20, 31) {
		sum := pairMass(UDRMulti{}, tr, pair[0], pair[1])
		if want := float64(tr.LeeDistance(pair[0], pair[1])); math.Abs(sum-want) > 1e-9 {
			t.Fatalf("mass %v, want %v", sum, want)
		}
	}
}

func TestUDRMultiName(t *testing.T) {
	if (UDRMulti{}).Name() != "UDR-multi" {
		t.Error("name mismatch")
	}
}
