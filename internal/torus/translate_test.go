package torus

import "testing"

// TestEdgeTranslationMatchesTranslate checks TranslateEdge edge by edge:
// the image's source is Translate of the edge's source, and its dimension
// and direction are the edge's own.
func TestEdgeTranslationMatchesTranslate(t *testing.T) {
	for _, tc := range []struct {
		k, d   int
		offset []int
	}{
		{4, 2, []int{1, 3}},
		{5, 2, []int{0, 0}},
		{5, 3, []int{2, 4, 1}},
		{2, 3, []int{1, 0, 1}},
		{6, 2, []int{-1, 7}}, // unwrapped coordinates are reduced mod k
	} {
		tr := New(tc.k, tc.d)
		for e := Edge(0); int(e) < tr.Edges(); e++ {
			img := tr.TranslateEdge(e, tc.offset)
			if got, want := tr.EdgeSource(img), tr.Translate(tr.EdgeSource(e), tc.offset); got != want {
				t.Fatalf("T^%d_%d offset %v: edge %d leaves node %d, want %d", tc.d, tc.k, tc.offset, e, got, want)
			}
			if tr.EdgeDim(img) != tr.EdgeDim(e) || tr.EdgeDir(img) != tr.EdgeDir(e) {
				t.Fatalf("T^%d_%d offset %v: edge %d changed dimension or direction", tc.d, tc.k, tc.offset, e)
			}
		}
	}
}

// TestEdgeTranslationCompose checks that translating an edge by a and then
// by b is translating it by a+b.
func TestEdgeTranslationCompose(t *testing.T) {
	tr := New(5, 3)
	a := []int{1, 2, 3}
	b := []int{4, 0, 2}
	ab := []int{0, 2, 0} // a+b mod 5
	for e := Edge(0); int(e) < tr.Edges(); e++ {
		if tr.TranslateEdge(tr.TranslateEdge(e, a), b) != tr.TranslateEdge(e, ab) {
			t.Fatalf("composition mismatch at edge %d", e)
		}
	}
}
