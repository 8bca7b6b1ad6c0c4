package torus

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBasicProperties(t *testing.T) {
	cases := []struct{ k, d, nodes, edges int }{
		{2, 1, 2, 4},
		{3, 1, 3, 6},
		{3, 2, 9, 36},
		{4, 2, 16, 64},
		{3, 3, 27, 162},
		{8, 3, 512, 3072},
		{5, 4, 625, 5000},
	}
	for _, c := range cases {
		tr := New(c.k, c.d)
		if tr.Nodes() != c.nodes {
			t.Errorf("T^%d_%d: Nodes() = %d, want %d", c.d, c.k, tr.Nodes(), c.nodes)
		}
		if tr.Edges() != c.edges {
			t.Errorf("T^%d_%d: Edges() = %d, want %d", c.d, c.k, tr.Edges(), c.edges)
		}
		if tr.K() != c.k || tr.D() != c.d {
			t.Errorf("T^%d_%d: K/D mismatch", c.d, c.k)
		}
	}
}

func TestCheckRejectsBadParameters(t *testing.T) {
	for _, c := range []struct{ k, d int }{{1, 2}, {0, 1}, {-3, 2}, {4, 0}, {5, -1}, {2, 40}, {1 << 20, 3}} {
		if err := Check(c.k, c.d); err == nil {
			t.Errorf("Check(%d, %d) should fail", c.k, c.d)
		}
	}
	for _, c := range []struct{ k, d int }{{2, 1}, {3, 2}, {16, 4}, {2, 20}} {
		if err := Check(c.k, c.d); err != nil {
			t.Errorf("Check(%d, %d) unexpectedly failed: %v", c.k, c.d, err)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1, 1) should panic")
		}
	}()
	New(1, 1)
}

func TestCoordRoundTrip(t *testing.T) {
	tr := New(5, 3)
	for u := Node(0); int(u) < tr.Nodes(); u++ {
		if got := tr.NodeAt(tr.Coords(u)); got != u {
			t.Fatalf("round trip failed: node %d -> %v -> %d", u, tr.Coords(u), got)
		}
	}
}

func TestNodeAtReducesModK(t *testing.T) {
	tr := New(4, 2)
	if tr.NodeAt([]int{5, -1}) != tr.NodeAt([]int{1, 3}) {
		t.Error("NodeAt should reduce coordinates modulo k")
	}
	if tr.NodeAt([]int{-4, 8}) != tr.NodeAt([]int{0, 0}) {
		t.Error("NodeAt should reduce negative and large coordinates")
	}
}

func TestNodeAtPanicsOnWrongLength(t *testing.T) {
	tr := New(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("NodeAt with wrong arity should panic")
		}
	}()
	tr.NodeAt([]int{1, 2, 3})
}

func TestStepWrapsAround(t *testing.T) {
	tr := New(4, 2)
	u := tr.NodeAt([]int{3, 0})
	if got := tr.Step(u, 0, Plus); got != tr.NodeAt([]int{0, 0}) {
		t.Errorf("Step +: got %v", tr.Coords(got))
	}
	if got := tr.Step(tr.NodeAt([]int{0, 2}), 0, Minus); got != tr.NodeAt([]int{3, 2}) {
		t.Errorf("Step -: got %v", tr.Coords(got))
	}
}

func TestStepInverse(t *testing.T) {
	tr := New(5, 3)
	tr.ForEachNode(func(u Node) {
		for j := 0; j < tr.D(); j++ {
			if tr.Step(tr.Step(u, j, Plus), j, Minus) != u {
				t.Fatalf("Step is not invertible at node %d dim %d", u, j)
			}
		}
	})
}

func TestEdgeEncodingRoundTrip(t *testing.T) {
	tr := New(4, 3)
	count := 0
	tr.ForEachEdge(func(e Edge) {
		count++
		u, j, dir := tr.EdgeSource(e), tr.EdgeDim(e), tr.EdgeDir(e)
		if tr.EdgeFrom(u, j, dir) != e {
			t.Fatalf("edge %d does not round trip", e)
		}
		if tr.EdgeTarget(e) != tr.Step(u, j, dir) {
			t.Fatalf("edge %d target mismatch", e)
		}
	})
	if count != tr.Edges() {
		t.Fatalf("ForEachEdge visited %d edges, want %d", count, tr.Edges())
	}
}

func TestReverseIsInvolution(t *testing.T) {
	tr := New(5, 2)
	tr.ForEachEdge(func(e Edge) {
		r := tr.Reverse(e)
		if tr.Reverse(r) != e {
			t.Fatalf("Reverse(Reverse(%d)) != %d", e, e)
		}
		if tr.EdgeSource(r) != tr.EdgeTarget(e) || tr.EdgeTarget(r) != tr.EdgeSource(e) {
			t.Fatalf("Reverse(%d) endpoints wrong", e)
		}
	})
}

func TestEveryNodeHas2DOutEdges(t *testing.T) {
	tr := New(3, 3)
	outdeg := make(map[Node]int)
	tr.ForEachEdge(func(e Edge) { outdeg[tr.EdgeSource(e)]++ })
	tr.ForEachNode(func(u Node) {
		if outdeg[u] != 2*tr.D() {
			t.Fatalf("node %d has out-degree %d, want %d", u, outdeg[u], 2*tr.D())
		}
	})
}

func TestCyclicDistance(t *testing.T) {
	cases := []struct{ i, j, k, want int }{
		{0, 0, 5, 0},
		{0, 1, 5, 1},
		{0, 4, 5, 1},
		{0, 2, 5, 2},
		{1, 4, 5, 2},
		{0, 3, 6, 3},
		{2, 5, 6, 3},
		{0, 4, 8, 4},
		{7, 1, 8, 2},
	}
	for _, c := range cases {
		if got := CyclicDistance(c.i, c.j, c.k); got != c.want {
			t.Errorf("CyclicDistance(%d,%d,%d) = %d, want %d", c.i, c.j, c.k, got, c.want)
		}
	}
}

func TestCyclicDistanceSymmetric(t *testing.T) {
	fn := func(i, j uint8, kRaw uint8) bool {
		k := int(kRaw%30) + 2
		a, b := int(i)%k, int(j)%k
		return CyclicDistance(a, b, k) == CyclicDistance(b, a, k)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestCyclicDistanceTriangle(t *testing.T) {
	fn := func(i, j, l uint8, kRaw uint8) bool {
		k := int(kRaw%30) + 2
		a, b, c := int(i)%k, int(j)%k, int(l)%k
		return CyclicDistance(a, c, k) <= CyclicDistance(a, b, k)+CyclicDistance(b, c, k)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestCoordDelta(t *testing.T) {
	cases := []struct {
		p, q, k int
		want    Delta
	}{
		{0, 0, 5, Delta{0, Plus, false}},
		{0, 2, 5, Delta{2, Plus, false}},
		{0, 3, 5, Delta{2, Minus, false}},
		{0, 2, 4, Delta{2, Plus, true}},
		{1, 3, 4, Delta{2, Plus, true}},
		{3, 1, 4, Delta{2, Plus, true}},
		{0, 7, 8, Delta{1, Minus, false}},
		{6, 1, 8, Delta{3, Plus, false}},
	}
	for _, c := range cases {
		if got := CoordDelta(c.p, c.q, c.k); got != c.want {
			t.Errorf("CoordDelta(%d,%d,%d) = %+v, want %+v", c.p, c.q, c.k, got, c.want)
		}
	}
}

func TestCoordDeltaMatchesCyclicDistance(t *testing.T) {
	fn := func(p, q uint8, kRaw uint8) bool {
		k := int(kRaw%30) + 2
		a, b := int(p)%k, int(q)%k
		del := CoordDelta(a, b, k)
		if del.Dist != CyclicDistance(a, b, k) {
			return false
		}
		// Walking Dist steps in direction Dir must land on b.
		c := a
		for s := 0; s < del.Dist; s++ {
			if del.Dir == Plus {
				c = (c + 1) % k
			} else {
				c = (c - 1 + k) % k
			}
		}
		return c == b
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestCoordDeltaTieOnlyWhenHalfway(t *testing.T) {
	for k := 2; k <= 12; k++ {
		for p := 0; p < k; p++ {
			for q := 0; q < k; q++ {
				del := CoordDelta(p, q, k)
				wantTie := k%2 == 0 && CyclicDistance(p, q, k) == k/2
				if del.Tie != wantTie {
					t.Fatalf("CoordDelta(%d,%d,%d).Tie = %v, want %v", p, q, k, del.Tie, wantTie)
				}
			}
		}
	}
}

func TestLeeDistanceAgainstBFS(t *testing.T) {
	for _, c := range []struct{ k, d int }{{3, 2}, {4, 2}, {5, 2}, {3, 3}, {4, 3}} {
		tr := New(c.k, c.d)
		dist := bfsAllDistances(tr, 0)
		tr.ForEachNode(func(v Node) {
			if got := tr.LeeDistance(0, v); got != dist[v] {
				t.Fatalf("T^%d_%d: LeeDistance(0,%d)=%d, BFS=%d", c.d, c.k, v, got, dist[v])
			}
		})
	}
}

func bfsAllDistances(tr *Torus, src Node) []int {
	dist := make([]int, tr.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []Node{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for j := 0; j < tr.D(); j++ {
			for _, dir := range []Direction{Plus, Minus} {
				v := tr.Step(u, j, dir)
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return dist
}

func TestLeeDistanceSymmetric(t *testing.T) {
	tr := New(6, 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		u := Node(rng.Intn(tr.Nodes()))
		v := Node(rng.Intn(tr.Nodes()))
		if tr.LeeDistance(u, v) != tr.LeeDistance(v, u) {
			t.Fatalf("LeeDistance(%d,%d) not symmetric", u, v)
		}
	}
}

func TestDeltasCountsDifferingDims(t *testing.T) {
	tr := New(5, 3)
	dst := make([]Delta, 3)
	u := tr.NodeAt([]int{1, 2, 3})
	v := tr.NodeAt([]int{1, 4, 0})
	if got := tr.Deltas(u, v, dst); got != 2 {
		t.Errorf("Deltas reported %d differing dims, want 2", got)
	}
	if dst[0].Dist != 0 || dst[1].Dist != 2 || dst[2].Dist != 2 {
		t.Errorf("unexpected deltas: %+v", dst)
	}
}

func TestMinimalPathCount(t *testing.T) {
	tr := New(5, 2)
	u := tr.NodeAt([]int{0, 0})
	// Distance (2,1): 3 steps, 3!/2!1! = 3 paths.
	if got := tr.MinimalPathCount(u, tr.NodeAt([]int{2, 1})); got != 3 {
		t.Errorf("path count (2,1) = %v, want 3", got)
	}
	// Same node: exactly one (empty) path.
	if got := tr.MinimalPathCount(u, u); got != 1 {
		t.Errorf("path count to self = %v, want 1", got)
	}
	// Tie case on even torus: T^1_4 from 0 to 2 has two shortest paths.
	tr4 := New(4, 1)
	if got := tr4.MinimalPathCount(0, 2); got != 2 {
		t.Errorf("tie path count = %v, want 2", got)
	}
	// Two tied dimensions on T^2_4 from (0,0) to (2,2): 4 direction choices
	// times 4!/2!2! = 6 interleavings = 24.
	tr44 := New(4, 2)
	if got := tr44.MinimalPathCount(tr44.NodeAt([]int{0, 0}), tr44.NodeAt([]int{2, 2})); got != 24 {
		t.Errorf("double-tie path count = %v, want 24", got)
	}
}

func TestSubtorusNodes(t *testing.T) {
	tr := New(4, 3)
	for dim := 0; dim < 3; dim++ {
		for v := 0; v < 4; v++ {
			nodes := tr.SubtorusNodes(Subtorus{Dim: dim, Value: v})
			if len(nodes) != 16 {
				t.Fatalf("subtorus dim=%d v=%d has %d nodes, want 16", dim, v, len(nodes))
			}
			for _, u := range nodes {
				if tr.Coord(u, dim) != v {
					t.Fatalf("node %d in subtorus dim=%d v=%d has coord %d", u, dim, v, tr.Coord(u, dim))
				}
			}
		}
	}
}

func TestSubtoriPartitionNodes(t *testing.T) {
	tr := New(5, 3)
	seen := make(map[Node]bool)
	for v := 0; v < tr.K(); v++ {
		for _, u := range tr.SubtorusNodes(Subtorus{Dim: 1, Value: v}) {
			if seen[u] {
				t.Fatalf("node %d in two subtori", u)
			}
			seen[u] = true
		}
	}
	if len(seen) != tr.Nodes() {
		t.Fatalf("subtori cover %d nodes, want %d", len(seen), tr.Nodes())
	}
}

func TestCrossingEdges(t *testing.T) {
	tr := New(4, 3)
	edges := tr.CrossingEdges(2, 1)
	if len(edges) != 2*16 {
		t.Fatalf("crossing has %d edges, want 32", len(edges))
	}
	seen := make(map[Edge]bool)
	for _, e := range edges {
		if seen[e] {
			t.Fatalf("duplicate edge %d in crossing", e)
		}
		seen[e] = true
		src, dst := tr.EdgeSource(e), tr.EdgeTarget(e)
		cs, cd := tr.Coord(src, 2), tr.Coord(dst, 2)
		ok := (cs == 1 && cd == 2) || (cs == 2 && cd == 1)
		if !ok {
			t.Fatalf("edge %s does not cross the 1|2 boundary in dim 2", tr.EdgeString(e))
		}
	}
}

func TestTranslate(t *testing.T) {
	tr := New(5, 2)
	u := tr.NodeAt([]int{4, 3})
	if got := tr.Translate(u, []int{2, 3}); got != tr.NodeAt([]int{1, 1}) {
		t.Errorf("Translate = %v", tr.Coords(got))
	}
	if got := tr.Translate(u, []int{-5, 0}); got != u {
		t.Errorf("Translate by multiples of k should be identity")
	}
}

func TestTranslatePreservesAdjacency(t *testing.T) {
	tr := New(4, 3)
	offset := []int{1, 2, 3}
	tr.ForEachEdge(func(e Edge) {
		te := tr.TranslateEdge(e, offset)
		if tr.Translate(tr.EdgeTarget(e), offset) != tr.EdgeTarget(te) {
			t.Fatalf("TranslateEdge(%d) target mismatch", e)
		}
	})
}

func TestTranslateIsGroupAction(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New(3+rng.Intn(5), 1+rng.Intn(3))
		u := Node(rng.Intn(tr.Nodes()))
		a := make([]int, tr.D())
		b := make([]int, tr.D())
		ab := make([]int, tr.D())
		for j := range a {
			a[j] = rng.Intn(tr.K())
			b[j] = rng.Intn(tr.K())
			ab[j] = a[j] + b[j]
		}
		return tr.Translate(tr.Translate(u, a), b) == tr.Translate(u, ab)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDirectionString(t *testing.T) {
	if Plus.String() != "+" || Minus.String() != "-" {
		t.Error("Direction.String mismatch")
	}
	if Plus.Opposite() != Minus || Minus.Opposite() != Plus {
		t.Error("Direction.Opposite mismatch")
	}
}

func TestTorusString(t *testing.T) {
	if got := New(8, 3).String(); got != "T^3_8 (512 nodes)" {
		t.Errorf("String() = %q", got)
	}
}

// TestEdgeStringMatchesFmt pins EdgeString's append-built text to the
// fmt.Sprintf("%v -> %v") of the two coordinate vectors it replaced, and
// checks it allocates only the string.
func TestEdgeStringMatchesFmt(t *testing.T) {
	for _, tr := range []*Torus{New(2, 1), New(8, 2), New(12, 3), New(3, 5), New(2, 9)} {
		for e := Edge(0); int(e) < tr.Edges(); e++ {
			want := fmt.Sprintf("%v -> %v", tr.Coords(tr.EdgeSource(e)), tr.Coords(tr.EdgeTarget(e)))
			if got := tr.EdgeString(e); got != want {
				t.Fatalf("%s edge %d: EdgeString %q, want %q", tr, e, got, want)
			}
		}
	}
	// The text goes to a package variable: EdgeString inlines, and a
	// string that does not escape its caller may live on the stack.
	tr := New(16, 3)
	if n := testing.AllocsPerRun(100, func() { edgeSink = tr.EdgeString(Edge(tr.Edges() - 1)) }); n != 1 {
		t.Errorf("EdgeString allocates %.0f times, want 1", n)
	}
}

// edgeSink keeps TestEdgeStringMatchesFmt's string escaping.
var edgeSink string

// TestNewSharesShapes checks that New hands every caller of a shape the
// same immutable Torus, without allocating once the shape is built.
func TestNewSharesShapes(t *testing.T) {
	a := New(7, 3)
	if b := New(7, 3); a != b {
		t.Error("two New(7, 3) calls built two tori")
	}
	if c := New(3, 7); c == a || c.K() != 3 || c.D() != 7 {
		t.Errorf("New(3, 7) = %s", c)
	}
	if n := testing.AllocsPerRun(100, func() { _ = New(7, 3) }); n != 0 {
		t.Errorf("New of a built shape allocates %.0f times, want 0", n)
	}
}

// TestEdgeRoundTrip checks that ParseEdge reads back every edge AppendEdge
// writes on T¹₂…T⁴₅ (on k = 2, where the + and − edges along a dimension
// print alike, the + edge, which writes the same text), and that it
// refuses malformed text, coordinates out of range and non-neighbors.
func TestEdgeRoundTrip(t *testing.T) {
	for k := 2; k <= 5; k++ {
		for d := 1; d <= 4; d++ {
			tr := New(k, d)
			for e := Edge(0); int(e) < tr.Edges(); e++ {
				text := string(tr.AppendEdge([]byte("x"), e))[1:]
				got, err := tr.ParseEdge(text)
				if err != nil {
					t.Fatalf("%s edge %d %q: %v", tr, e, text, err)
				}
				want := e
				if k == 2 {
					want = tr.EdgeFrom(tr.EdgeSource(e), tr.EdgeDim(e), Plus)
				}
				if got != want {
					t.Fatalf("%s: ParseEdge(%q) = %d, want %d", tr, text, got, want)
				}
				if back := tr.EdgeString(got); back != text {
					t.Fatalf("%s: edge %q parses to one written %q", tr, text, back)
				}
			}
		}
	}
	tr := New(5, 2)
	for _, s := range []string{
		"", "[0 0]", "[0 0] -> ", "[0 0] -> [1 0] ", " [0 0] -> [1 0]", "[0 0] ->[1 0]",
		"[0 0]  -> [1 0]", "[0  0] -> [1 0]", "[0 0 ] -> [1 0]", "(0 0) -> (1 0)",
		"[0] -> [1]", "[0 0 0] -> [1 0 0]", "[0 0] -> [1]", "[00 0] -> [1 0]", "[+0 0] -> [1 0]",
		"[-1 0] -> [0 0]", "[0 5] -> [0 0]", "[4 0] -> [5 0]", "[99999999999999999999 0] -> [0 0]",
		"[0 0] -> [0 0]", "[0 0] -> [2 0]", "[0 0] -> [1 1]", "[1 1] -> [3 1]",
	} {
		if e, err := tr.ParseEdge(s); err == nil {
			t.Errorf("%s: ParseEdge(%q) = %d, want an error", tr, s, e)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = tr.ParseEdge("[4 3] -> [0 3]") }); n != 0 {
		t.Errorf("ParseEdge allocates %.0f times, want 0", n)
	}
}
