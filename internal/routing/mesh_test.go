package routing

import (
	"math/rand"
	"testing"

	"torusnet/internal/torus"
)

func TestMeshPathsNeverUseWraps(t *testing.T) {
	tr := torus.New(5, 3)
	for _, pair := range samplePairs(tr, 40, 61) {
		path := meshPath(tr, pair[0], pair[1])
		if UsesWrapLink(tr, path) {
			t.Fatalf("mesh path %v->%v uses a wrap link",
				tr.Coords(pair[0]), tr.Coords(pair[1]))
		}
		// Connected walk ending at the destination.
		cur := pair[0]
		for _, e := range path.Edges {
			if tr.EdgeSource(e) != cur {
				t.Fatal("disconnected mesh path")
			}
			cur = tr.EdgeTarget(e)
		}
		if cur != pair[1] {
			t.Fatal("mesh path misses destination")
		}
	}
}

func TestMeshPathLengthIsArrayDistance(t *testing.T) {
	tr := torus.New(6, 2)
	for _, pair := range samplePairs(tr, 40, 67) {
		path := meshPath(tr, pair[0], pair[1])
		want := ArrayDistance(tr, pair[0], pair[1])
		if len(path.Edges) != want {
			t.Fatalf("mesh path length %d, array distance %d", len(path.Edges), want)
		}
		// Array distance dominates Lee distance, by up to a factor d·…
		if want < tr.LeeDistance(pair[0], pair[1]) {
			t.Fatal("array distance below Lee distance (impossible)")
		}
	}
}

func TestMeshConservationIsArrayTotal(t *testing.T) {
	tr := torus.New(5, 2)
	for _, pair := range samplePairs(tr, 25, 71) {
		sum := pairMass(MeshODR{}, tr, pair[0], pair[1])
		if sum != float64(ArrayDistance(tr, pair[0], pair[1])) {
			t.Fatalf("mass %v, want array distance %d", sum, ArrayDistance(tr, pair[0], pair[1]))
		}
	}
}

func TestMeshAccumulateMatchesPath(t *testing.T) {
	tr := torus.New(5, 2)
	for _, pair := range samplePairs(tr, 20, 73) {
		onPath := make(map[torus.Edge]bool)
		for _, e := range meshPath(tr, pair[0], pair[1]).Edges {
			onPath[e] = true
		}
		for e, w := range pairLoads(MeshODR{}, tr, pair[0], pair[1], 1) {
			if w == 0 {
				continue
			}
			if w != 1 || !onPath[torus.Edge(e)] {
				t.Fatalf("accumulate hit edge %d weight %v not matching the path", e, w)
			}
			delete(onPath, torus.Edge(e))
		}
		if len(onPath) != 0 {
			t.Fatal("accumulate missed path edges")
		}
	}
}

func TestMeshSampleSingleAndCount(t *testing.T) {
	tr := torus.New(4, 2)
	rng := rand.New(rand.NewSource(2))
	if (MeshODR{}).PathCount(tr, 0, 9) != 1 {
		t.Error("mesh is single-path")
	}
	s := (MeshODR{}).SamplePath(tr, 0, 9, rng)
	paths := enumerate(MeshODR{}, tr, 0, 9)
	if len(paths) != 1 || len(s.Edges) != len(paths[0].Edges) {
		t.Error("sample/enumerate mismatch")
	}
	if (MeshODR{}).Name() != "ODR-mesh" {
		t.Error("name")
	}
}

func TestArrayDistanceKnownValues(t *testing.T) {
	tr := torus.New(5, 2)
	cases := []struct {
		a, b []int
		want int
	}{
		{[]int{0, 0}, []int{4, 0}, 4}, // torus Lee would be 1
		{[]int{0, 0}, []int{2, 3}, 5},
		{[]int{1, 1}, []int{1, 1}, 0},
	}
	for _, c := range cases {
		if got := ArrayDistance(tr, tr.NodeAt(c.a), tr.NodeAt(c.b)); got != c.want {
			t.Errorf("ArrayDistance(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestUsesWrapLinkDetection(t *testing.T) {
	tr := torus.New(4, 1)
	// Torus ODR from 3 to 0 wraps; mesh path from 3 to 0 walks back.
	torusPath := odrPath(tr, 3, 0)
	if !UsesWrapLink(tr, torusPath) {
		t.Error("torus path 3->0 should wrap")
	}
	mesh := meshPath(tr, 3, 0)
	if UsesWrapLink(tr, mesh) {
		t.Error("mesh path must not wrap")
	}
	if len(mesh.Edges) != 3 {
		t.Errorf("mesh path length %d, want 3", len(mesh.Edges))
	}
}
