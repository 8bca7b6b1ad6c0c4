package routing

import (
	"math"
	"math/rand"
	"testing"

	"torusnet/internal/torus"
)

var allAlgorithms = []Algorithm{ODR{}, ODRMulti{}, UDR{}, UDRMulti{}, FAR{}}

// kernelAlgorithms is every Algorithm of the package on a d-dimensional
// torus: the shortest-path ones plus ODROrder in identity and reversed
// order and MeshODR, whose paths are minimal only in the array metric.
func kernelAlgorithms(d int) []Algorithm {
	rev := make([]int, d)
	for i := range rev {
		rev[i] = d - 1 - i
	}
	return append(append([]Algorithm(nil), allAlgorithms...), ODROrder{}, ODROrder{Order: rev}, MeshODR{})
}

// pairLoads runs a's kernel for one pair at weight w into a fresh dense
// per-edge slice.
func pairLoads(a Algorithm, t *torus.Torus, p, q torus.Node, w float64) []float64 {
	loads := make([]float64, t.Edges())
	a.AccumulatePair(t, p, q, w, loads, NewPairScratch(t))
	return loads
}

// pairMass is the total unit-weight mass a's kernel deposits for one pair.
func pairMass(a Algorithm, t *torus.Torus, p, q torus.Node) float64 {
	sum := 0.0
	for _, l := range pairLoads(a, t, p, q, 1) {
		sum += l
	}
	return sum
}

// enumerate returns all paths of the algorithm for a pair.
func enumerate(a Algorithm, t *torus.Torus, p, q torus.Node) []Path {
	var out []Path
	a.ForEachPath(t, p, q, func(pp Path) bool {
		out = append(out, pp)
		return true
	})
	return out
}

// expectationByEnumeration computes w times the per-edge crossing
// probabilities the slow way: every enumerated path carries weight w/N.
func expectationByEnumeration(a Algorithm, t *torus.Torus, p, q torus.Node, weight float64) map[torus.Edge]float64 {
	paths := enumerate(a, t, p, q)
	out := make(map[torus.Edge]float64)
	w := weight / float64(len(paths))
	for _, pp := range paths {
		for _, e := range pp.Edges {
			out[e] += w
		}
	}
	return out
}

// expectationByAccumulate runs a's kernel at weight w into loads through
// sc, both reused across pairs so stale scratch state would show, and
// returns the nonzero entries, leaving loads zeroed.
func expectationByAccumulate(a Algorithm, t *torus.Torus, p, q torus.Node, w float64, loads []float64, sc *PairScratch) map[torus.Edge]float64 {
	a.AccumulatePair(t, p, q, w, loads, sc)
	out := make(map[torus.Edge]float64)
	for e, l := range loads {
		if l != 0 {
			out[torus.Edge(e)] = l
			loads[e] = 0
		}
	}
	return out
}

func mapsClose(t *testing.T, got, want map[torus.Edge]float64, label string) {
	t.Helper()
	for e, w := range want {
		if math.Abs(got[e]-w) > 1e-9 {
			t.Fatalf("%s: edge %d: got %v, want %v", label, e, got[e], w)
		}
	}
	for e, w := range got {
		if _, ok := want[e]; !ok && math.Abs(w) > 1e-9 {
			t.Fatalf("%s: edge %d has weight %v but is unused by enumeration", label, e, w)
		}
	}
}

func samplePairs(tr *torus.Torus, n int, seed int64) [][2]torus.Node {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]torus.Node, 0, n)
	for len(out) < n {
		p := torus.Node(rng.Intn(tr.Nodes()))
		q := torus.Node(rng.Intn(tr.Nodes()))
		if p != q {
			out = append(out, [2]torus.Node{p, q})
		}
	}
	return out
}

func TestAllPathsAreValidAndMinimal(t *testing.T) {
	for _, c := range []struct{ k, d int }{{3, 2}, {4, 2}, {5, 2}, {4, 3}, {5, 3}, {6, 2}} {
		tr := torus.New(c.k, c.d)
		for _, alg := range allAlgorithms {
			for _, pair := range samplePairs(tr, 25, int64(c.k*10+c.d)) {
				p, q := pair[0], pair[1]
				paths := enumerate(alg, tr, p, q)
				if len(paths) == 0 {
					t.Fatalf("%s on %s: no paths for %v->%v", alg.Name(), tr, tr.Coords(p), tr.Coords(q))
				}
				for _, pp := range paths {
					if err := pp.Validate(tr, q); err != nil {
						t.Fatalf("%s on %s: %v", alg.Name(), tr, err)
					}
				}
			}
		}
	}
}

func TestPathCountMatchesEnumeration(t *testing.T) {
	for _, c := range []struct{ k, d int }{{3, 2}, {4, 2}, {4, 3}, {5, 3}, {6, 2}} {
		tr := torus.New(c.k, c.d)
		for _, alg := range allAlgorithms {
			for _, pair := range samplePairs(tr, 20, 99) {
				p, q := pair[0], pair[1]
				want := float64(len(enumerate(alg, tr, p, q)))
				if got := alg.PathCount(tr, p, q); got != want {
					t.Fatalf("%s on %s %v->%v: PathCount=%v, enumeration=%v",
						alg.Name(), tr, tr.Coords(p), tr.Coords(q), got, want)
				}
			}
		}
	}
}

func TestPathsAreDistinct(t *testing.T) {
	tr := torus.New(5, 3)
	for _, alg := range allAlgorithms {
		for _, pair := range samplePairs(tr, 10, 7) {
			paths := enumerate(alg, tr, pair[0], pair[1])
			seen := make(map[string]bool)
			for _, pp := range paths {
				key := ""
				for _, e := range pp.Edges {
					key += string(rune(e)) // edges < 2·3·125 fit in runes
				}
				if seen[key] {
					t.Fatalf("%s: duplicate path for %v->%v", alg.Name(), tr.Coords(pair[0]), tr.Coords(pair[1]))
				}
				seen[key] = true
			}
		}
	}
}

func TestODRSinglePath(t *testing.T) {
	tr := torus.New(6, 3)
	for _, pair := range samplePairs(tr, 50, 3) {
		if got := (ODR{}).PathCount(tr, pair[0], pair[1]); got != 1 {
			t.Fatalf("ODR path count %v, want 1", got)
		}
	}
}

func TestODRBreaksTiesPlus(t *testing.T) {
	tr := torus.New(4, 1)
	// 0 -> 2 is a tie; the canonical path must go 0 -> 1 -> 2.
	paths := enumerate(ODR{}, tr, 0, 2)
	if len(paths) != 1 {
		t.Fatalf("got %d paths", len(paths))
	}
	nodes := paths[0].Nodes(tr)
	if len(nodes) != 3 || nodes[1] != 1 {
		t.Fatalf("tie not broken toward +: nodes %v", nodes)
	}
}

func TestODRCorrectsDimensionsInOrder(t *testing.T) {
	tr := torus.New(5, 3)
	p := tr.NodeAt([]int{0, 0, 0})
	q := tr.NodeAt([]int{2, 1, 2})
	paths := enumerate(ODR{}, tr, p, q)
	nodes := paths[0].Nodes(tr)
	// Dimension 0 first: second node must be (1,0,0) (cyclic +).
	if nodes[1] != tr.NodeAt([]int{1, 0, 0}) {
		t.Fatalf("ODR did not correct dimension 0 first: %v", tr.Coords(nodes[1]))
	}
	// Last intermediate must have dims 0,1 corrected.
	mid := nodes[3]
	if tr.Coord(mid, 0) != 2 || tr.Coord(mid, 1) != 1 {
		t.Fatalf("ODR order violated at %v", tr.Coords(mid))
	}
}

func TestODRMultiCountsTies(t *testing.T) {
	tr := torus.New(4, 2)
	p := tr.NodeAt([]int{0, 0})
	cases := []struct {
		q    []int
		want float64
	}{
		{[]int{1, 0}, 1},
		{[]int{2, 0}, 2},
		{[]int{2, 2}, 4},
		{[]int{2, 1}, 2},
		{[]int{1, 1}, 1},
	}
	for _, c := range cases {
		if got := (ODRMulti{}).PathCount(tr, p, tr.NodeAt(c.q)); got != c.want {
			t.Errorf("ODRMulti count to %v = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestUDRPathCountIsFactorial(t *testing.T) {
	tr := torus.New(5, 4)
	p := tr.NodeAt([]int{0, 0, 0, 0})
	cases := []struct {
		q    []int
		want float64
	}{
		{[]int{1, 0, 0, 0}, 1},
		{[]int{1, 1, 0, 0}, 2},
		{[]int{1, 2, 1, 0}, 6},
		{[]int{1, 2, 1, 2}, 24},
	}
	for _, c := range cases {
		if got := (UDR{}).PathCount(tr, p, tr.NodeAt(c.q)); got != c.want {
			t.Errorf("UDR count to %v = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestAccumulateMatchesEnumeration is the kernel oracle: for every
// algorithm, at unit and fractional pair weight, the in-place kernel
// deposits exactly the enumerated per-edge path mass.
func TestAccumulateMatchesEnumeration(t *testing.T) {
	for _, c := range []struct{ k, d int }{{3, 2}, {4, 2}, {5, 2}, {6, 2}, {4, 3}, {5, 3}} {
		tr := torus.New(c.k, c.d)
		sc := NewPairScratch(tr)
		loads := make([]float64, tr.Edges())
		for _, alg := range kernelAlgorithms(c.d) {
			for _, pair := range samplePairs(tr, 15, int64(c.k+c.d)) {
				p, q := pair[0], pair[1]
				for _, w := range []float64{1, 0.375} {
					want := expectationByEnumeration(alg, tr, p, q, w)
					got := expectationByAccumulate(alg, tr, p, q, w, loads, sc)
					mapsClose(t, got, want, alg.Name())
				}
			}
		}
	}
}

func TestAccumulateSumsToLeeDistance(t *testing.T) {
	// Any unit-mass routing over shortest paths must place total expected
	// edge usage equal to the path length, i.e. the Lee distance.
	for _, c := range []struct{ k, d int }{{4, 2}, {5, 3}, {6, 2}, {8, 2}, {4, 4}} {
		tr := torus.New(c.k, c.d)
		for _, alg := range allAlgorithms {
			for _, pair := range samplePairs(tr, 30, 5) {
				p, q := pair[0], pair[1]
				sum := pairMass(alg, tr, p, q)
				if want := float64(tr.LeeDistance(p, q)); math.Abs(sum-want) > 1e-9 {
					t.Fatalf("%s on %s %v->%v: total mass %v, want %v",
						alg.Name(), tr, tr.Coords(p), tr.Coords(q), sum, want)
				}
			}
		}
	}
}

func TestSamplePathIsValidAndFromSet(t *testing.T) {
	tr := torus.New(6, 3)
	rng := rand.New(rand.NewSource(11))
	for _, alg := range allAlgorithms {
		for _, pair := range samplePairs(tr, 20, 13) {
			p, q := pair[0], pair[1]
			pp := alg.SamplePath(tr, p, q, rng)
			if err := pp.Validate(tr, q); err != nil {
				t.Fatalf("%s: sampled path invalid: %v", alg.Name(), err)
			}
		}
	}
}

func TestSampleDistributionUniform(t *testing.T) {
	// For a pair with a small path set, the empirical distribution of
	// SamplePath must converge to uniform.
	tr := torus.New(5, 2)
	p := tr.NodeAt([]int{0, 0})
	q := tr.NodeAt([]int{2, 1}) // UDR: 2 paths; FAR: 3 paths
	rng := rand.New(rand.NewSource(17))
	for _, alg := range []Algorithm{UDR{}, FAR{}} {
		paths := enumerate(alg, tr, p, q)
		counts := make(map[string]int)
		const trials = 30000
		for i := 0; i < trials; i++ {
			pp := alg.SamplePath(tr, p, q, rng)
			key := ""
			for _, e := range pp.Edges {
				key += string(rune(e))
			}
			counts[key]++
		}
		if len(counts) != len(paths) {
			t.Fatalf("%s: sampled %d distinct paths, enumerated %d", alg.Name(), len(counts), len(paths))
		}
		want := float64(trials) / float64(len(paths))
		for key, n := range counts {
			if math.Abs(float64(n)-want) > 5*math.Sqrt(want) {
				t.Errorf("%s: path %q sampled %d times, want ~%v", alg.Name(), key, n, want)
			}
		}
	}
}

func TestFARCountsAllShortestPaths(t *testing.T) {
	// Cross-check FAR enumeration against BFS-based shortest path counting.
	tr := torus.New(4, 2)
	for _, pair := range samplePairs(tr, 20, 23) {
		p, q := pair[0], pair[1]
		want := countShortestPathsBFS(tr, p, q)
		got := len(enumerate(FAR{}, tr, p, q))
		if got != want {
			t.Fatalf("FAR %v->%v: enumerated %d paths, BFS counts %d",
				tr.Coords(p), tr.Coords(q), got, want)
		}
	}
}

// countShortestPathsBFS counts shortest paths using plain BFS layering,
// treating parallel edges on k=2 rings correctly (multiplicity via edges).
func countShortestPathsBFS(tr *torus.Torus, src, dst torus.Node) int {
	dist := make([]int, tr.Nodes())
	ways := make([]int, tr.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	ways[src] = 1
	queue := []torus.Node{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for j := 0; j < tr.D(); j++ {
			for _, dir := range []torus.Direction{torus.Plus, torus.Minus} {
				v := tr.Step(u, j, dir)
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					ways[v] += ways[u]
				}
			}
		}
	}
	return ways[dst]
}

func TestUDRAccumulateWeightsAreMultiplesOfFactorial(t *testing.T) {
	tr := torus.New(5, 3)
	p := tr.NodeAt([]int{0, 0, 0})
	q := tr.NodeAt([]int{1, 2, 2})
	// s = 3: every weight must be a multiple of 1/3! = 1/6.
	for _, w := range pairLoads(UDR{}, tr, p, q, 1) {
		scaled := w * 6
		if math.Abs(scaled-math.Round(scaled)) > 1e-9 {
			t.Fatalf("weight %v is not a multiple of 1/6", w)
		}
	}
}

func TestEmptyPairContributesNothing(t *testing.T) {
	tr := torus.New(5, 2)
	for _, alg := range kernelAlgorithms(tr.D()) {
		for e, w := range pairLoads(alg, tr, 3, 3, 1) {
			if w != 0 {
				t.Fatalf("%s: self-pair touched edge %d", alg.Name(), e)
			}
		}
	}
}

func TestPathEndAndNodes(t *testing.T) {
	tr := torus.New(5, 2)
	p := tr.NodeAt([]int{0, 0})
	q := tr.NodeAt([]int{2, 3})
	pp := odrPath(tr, p, q)
	if pp.End(tr) != q {
		t.Fatalf("End = %v, want %v", tr.Coords(pp.End(tr)), tr.Coords(q))
	}
	nodes := pp.Nodes(tr)
	if nodes[0] != p || nodes[len(nodes)-1] != q {
		t.Fatal("Nodes endpoints wrong")
	}
	if pp.Len() != tr.LeeDistance(p, q) {
		t.Fatalf("Len = %d, want %d", pp.Len(), tr.LeeDistance(p, q))
	}
	empty := Path{Start: p}
	if empty.End(tr) != p {
		t.Fatal("empty path End should be Start")
	}
}

func TestValidateCatchesBrokenPaths(t *testing.T) {
	tr := torus.New(5, 2)
	p := tr.NodeAt([]int{0, 0})
	q := tr.NodeAt([]int{2, 0})
	good := odrPath(tr, p, q)
	if err := good.Validate(tr, q); err != nil {
		t.Fatalf("good path rejected: %v", err)
	}
	// Wrong endpoint.
	if err := good.Validate(tr, p); err == nil {
		t.Error("wrong endpoint accepted")
	}
	// Disconnected walk.
	bad := Path{Start: p, Edges: []torus.Edge{good.Edges[1], good.Edges[0]}}
	if err := bad.Validate(tr, q); err == nil {
		t.Error("disconnected walk accepted")
	}
	// Non-minimal path: go around the long way.
	long := Path{Start: p}
	cur := p
	for i := 0; i < 3; i++ {
		e := tr.EdgeFrom(cur, 0, torus.Minus)
		long.Edges = append(long.Edges, e)
		cur = tr.EdgeTarget(e)
	}
	if err := long.Validate(tr, q); err == nil {
		t.Error("non-minimal path accepted")
	}
}

func TestAlgorithmNames(t *testing.T) {
	want := map[string]Algorithm{"ODR": ODR{}, "ODR-multi": ODRMulti{}, "UDR": UDR{}, "FAR": FAR{}}
	for name, alg := range want {
		if alg.Name() != name {
			t.Errorf("Name() = %q, want %q", alg.Name(), name)
		}
	}
}

func TestMultinomial(t *testing.T) {
	cases := []struct {
		parts []int
		want  float64
	}{
		{[]int{0}, 1},
		{[]int{3}, 1},
		{[]int{1, 1}, 2},
		{[]int{2, 1}, 3},
		{[]int{2, 2}, 6},
		{[]int{3, 2, 1}, 60},
	}
	for _, c := range cases {
		if got := multinomial(c.parts); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("multinomial(%v) = %v, want %v", c.parts, got, c.want)
		}
	}
}

func TestFactorial(t *testing.T) {
	want := []float64{1, 1, 2, 6, 24, 120, 720}
	for n, w := range want {
		if got := factorial(n); got != w {
			t.Errorf("factorial(%d) = %v, want %v", n, got, w)
		}
	}
}

// TestFARLatticeIsMultinomial checks FAR's Pascal lattice against the
// closed form: after AccumulatePair, every state x of the pair's lattice
// holds multinomial(x) exactly, and 2^ties·multinomial(δ) is the pair's
// PathCount. It covers every destination from node 0 on tori with odd and
// even k, where even k adds tied dimensions.
func TestFARLatticeIsMultinomial(t *testing.T) {
	for _, tr := range []*torus.Torus{torus.New(8, 2), torus.New(5, 3), torus.New(6, 3), torus.New(4, 4)} {
		sc := NewPairScratch(tr)
		loads := make([]float64, tr.Edges())
		for q := 1; q < tr.Nodes(); q++ {
			pr := newFARProblem(tr, 0, torus.Node(q))
			FAR{}.AccumulatePair(tr, 0, torus.Node(q), 1, loads, sc)
			states := 1
			for _, d := range pr.dists {
				states *= d + 1
			}
			x := make([]int, len(pr.dists))
			for st := 0; st < states; st++ {
				if st > 0 {
					advance(x, pr.dists)
				}
				if got, want := sc.paths[st], multinomial(x); got != want {
					t.Fatalf("%s 0→%d: lattice state %v holds %v, want %v", tr, q, x, got, want)
				}
			}
			if got, want := (FAR{}).PathCount(tr, 0, torus.Node(q)), math.Ldexp(multinomial(pr.dists), len(pr.tied)); got != want {
				t.Fatalf("%s 0→%d: PathCount %v, want %v", tr, q, got, want)
			}
		}
	}
}

// multinomial returns (Σ parts)! / Π parts! as float64, the closed form
// of the FAR kernel's Pascal lattice entries.
func multinomial(parts []int) float64 {
	total := 0
	out := 1.0
	for _, p := range parts {
		for i := 1; i <= p; i++ {
			total++
			out = out * float64(total) / float64(i)
		}
	}
	return out
}
