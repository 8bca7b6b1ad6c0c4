package routing

import (
	"math/rand"
	"testing"

	"torusnet/internal/torus"
)

func TestODROrderIdentityEqualsODR(t *testing.T) {
	tr := torus.New(5, 3)
	for _, pair := range samplePairs(tr, 25, 41) {
		a := odrPath(tr, pair[0], pair[1])
		b := (ODROrder{}).path(tr, pair[0], pair[1])
		if len(a.Edges) != len(b.Edges) {
			t.Fatal("length mismatch")
		}
		for i := range a.Edges {
			if a.Edges[i] != b.Edges[i] {
				t.Fatal("identity ODROrder disagrees with ODR")
			}
		}
	}
}

func TestODROrderCorrectsInGivenOrder(t *testing.T) {
	tr := torus.New(5, 3)
	p := tr.NodeAt([]int{0, 0, 0})
	q := tr.NodeAt([]int{1, 1, 1})
	path := (ODROrder{Order: []int{2, 0, 1}}).path(tr, p, q)
	if err := path.Validate(tr, q); err != nil {
		t.Fatal(err)
	}
	// First hop must be along dimension 2.
	if tr.EdgeDim(path.Edges[0]) != 2 {
		t.Errorf("first hop along dim %d, want 2", tr.EdgeDim(path.Edges[0]))
	}
	// Last hop along dimension 1.
	if tr.EdgeDim(path.Edges[len(path.Edges)-1]) != 1 {
		t.Errorf("last hop along dim %d, want 1", tr.EdgeDim(path.Edges[len(path.Edges)-1]))
	}
}

func TestODROrderMinimalAndConserving(t *testing.T) {
	tr := torus.New(6, 3)
	alg := ODROrder{Order: []int{1, 2, 0}}
	for _, pair := range samplePairs(tr, 30, 43) {
		path := alg.path(tr, pair[0], pair[1])
		if err := path.Validate(tr, pair[1]); err != nil {
			t.Fatal(err)
		}
		sum := pairMass(alg, tr, pair[0], pair[1])
		if sum != float64(tr.LeeDistance(pair[0], pair[1])) {
			t.Fatalf("mass %v, want %d", sum, tr.LeeDistance(pair[0], pair[1]))
		}
	}
}

func TestODROrderPanicsOnBadPermutation(t *testing.T) {
	tr := torus.New(4, 2)
	for _, bad := range [][]int{{0, 0}, {0, 2}, {1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("order %v should panic", bad)
				}
			}()
			(ODROrder{Order: bad}).path(tr, 0, 5)
		}()
	}
}

func TestODROrderSampleAndEnumerate(t *testing.T) {
	tr := torus.New(5, 2)
	alg := ODROrder{Order: []int{1, 0}}
	rng := rand.New(rand.NewSource(1))
	paths := enumerate(alg, tr, 0, 7)
	if len(paths) != 1 || alg.PathCount(tr, 0, 7) != 1 {
		t.Fatal("ODROrder must be single-path")
	}
	s := alg.SamplePath(tr, 0, 7, rng)
	if len(s.Edges) != len(paths[0].Edges) {
		t.Fatal("sample differs from enumeration")
	}
	if alg.Name() != "ODR[1 0]" {
		t.Errorf("name %q", alg.Name())
	}
}
