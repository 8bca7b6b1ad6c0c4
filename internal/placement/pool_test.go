package placement

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"torusnet/internal/torus"
)

// poolCase is one build of the reuse tests: a spec on a torus shape.
type poolCase struct {
	k, d int
	spec Spec
}

// poolCases alternate larger and smaller tori, dimensions and spec kinds,
// so each build reuses buffers a different shape left behind: membership
// and layer words, node lists and coefficients, longer and shorter.
var poolCases = []poolCase{
	{6, 3, Linear{C: 2}},
	{3, 2, Random{Count: 4, Seed: 9}},
	{5, 3, MultipleLinear{T: 3, Start: 1}},
	{4, 2, ShiftedDiagonal{Shift: 1}},
	{8, 2, Random{Count: 40, Seed: 3}},
	{4, 1, Full{}},
	{4, 3, MultipleLinear{T: 2, Coeffs: []int{3, 2, 1}}},
	{7, 2, Explicit{Label: "three", Coords: [][]int{{0, 0}, {1, 2}, {6, 6}}}},
	{3, 4, LayerCluster{Dim: 2}},
	{6, 2, Full{}},
	{5, 2, Linear{C: 1, Coeffs: []int{2, 3}}},
}

// poolView is everything a placement answers, read through its methods.
type poolView struct {
	nodes    []torus.Node
	contains []bool
	layers   []int
	uniform  bool
	order    int
	cosets   []int32
	name     string
}

// viewOf reads p's answers into a poolView that owns its memory.
func viewOf(p *Placement) poolView {
	tr := p.Torus()
	v := poolView{nodes: slices.Clone(p.Nodes()), uniform: p.IsUniform(), name: p.Name()}
	for u := 0; u < tr.Nodes(); u++ {
		v.contains = append(v.contains, p.Contains(torus.Node(u)))
	}
	for dim := 0; dim < tr.D(); dim++ {
		for x := 0; x < tr.K(); x++ {
			v.layers = append(v.layers, p.CountInSubtorus(torus.Subtorus{Dim: dim, Value: x}))
		}
	}
	if v.order = p.GroupOrder(); p.classes > 0 {
		v.cosets = make([]int32, tr.Nodes())
		p.Cosets(v.cosets)
	}
	return v
}

func (v poolView) equal(w poolView) bool {
	return slices.Equal(v.nodes, w.nodes) && slices.Equal(v.contains, w.contains) &&
		slices.Equal(v.layers, w.layers) && v.uniform == w.uniform && v.name == w.name &&
		v.order == w.order && slices.Equal(v.cosets, w.cosets)
}

// freshViews builds every case with the pool emptied first (two
// collections empty a sync.Pool) and nothing released, so each view comes
// from a build on freshly made buffers.
func freshViews(t *testing.T) []poolView {
	runtime.GC()
	runtime.GC()
	want := make([]poolView, len(poolCases))
	for i, c := range poolCases {
		want[i] = viewOf(mustBuild(t, c.spec, torus.New(c.k, c.d)))
	}
	return want
}

// TestBuildAfterReleaseMatchesFresh builds every case after releasing a
// placement of another shape and spec, whose layer counts and cosets
// were computed first so that their buffers hold data: the new build must
// answer exactly as a fresh one in its nodes, membership, layer counts,
// uniformity, group order and cosets. Four goroutines run the sequence at once, in
// different orders, so the race detector sees the pool handed across
// goroutines.
func TestBuildAfterReleaseMatchesFresh(t *testing.T) {
	want := freshViews(t)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				for step := range poolCases {
					i := (step*(g+1) + round) % len(poolCases)
					c := poolCases[i]
					p, err := c.spec.Build(torus.New(c.k, c.d))
					if err != nil {
						errs <- err.Error()
						return
					}
					if got := viewOf(p); !got.equal(want[i]) {
						errs <- "reused build of " + c.spec.Name() + " on " + torus.New(c.k, c.d).String() + " differs from a fresh build"
						return
					}
					p.Release()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestReleaseTwicePanics checks that a second Release of one placement
// panics instead of handing one set of buffers to two later builds.
func TestReleaseTwicePanics(t *testing.T) {
	p := mustBuild(t, Linear{}, torus.New(4, 2))
	p.Release()
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
	}()
	p.Release()
}

// TestWarmBuildAllocatesOnlyName is the allocation gate of a build whose
// buffers come from a released placement: a warm Build+Release of
// random:N:S, multi:T:S or diagonal:S allocates the name string and
// nothing else, and reading the group a linear-family builder recorded,
// its order and its cosets, as the FAR symmetry engine does, adds no
// allocation. The race detector
// drops pooled buffers on purpose, so the counts hold only without it.
func TestWarmBuildAllocatesOnlyName(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	for _, c := range []struct {
		k, d  int
		spec  Spec
		group bool
	}{
		{8, 3, Random{Count: 64, Seed: 5}, false},
		{16, 2, MultipleLinear{T: 3, Start: 2}, false},
		{8, 3, ShiftedDiagonal{Shift: 3}, false},
		{16, 2, MultipleLinear{T: 2, Start: 1}, true},
		{8, 3, ShiftedDiagonal{Shift: 1}, true},
		{12, 2, Linear{C: 4}, true},
	} {
		tr := torus.New(c.k, c.d)
		label := make([]int32, tr.Nodes())
		run := func() {
			p, err := c.spec.Build(tr)
			if err != nil {
				t.Fatal(err)
			}
			if c.group && (p.GroupOrder() != tr.Nodes()/tr.K() || p.Cosets(label) != tr.K()) {
				t.Fatalf("%s on %s: wrong recorded group", c.spec.Name(), tr)
			}
			p.Release()
		}
		run()
		if got := testing.AllocsPerRun(100, run); got != 1 {
			t.Errorf("%s on %s (group %v): warm Build+Release allocates %.1f times, want 1 (the name)", c.spec.Name(), tr, c.group, got)
		}
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, st := range bi.Settings {
		if st.Key == "-race" {
			return st.Value == "true"
		}
	}
	return false
}
