package torus

import (
	"slices"
	"testing"
)

// bfsGraph is the tests' breadth-first-search oracle: the torus as
// adjacency lists, one entry per directed link, built by stepping from
// every node, so its distances and path counts share no code with the
// closed forms they check.
type bfsGraph [][]int

// linkGraph builds the digraph of t's links, leaving out those in failed.
func linkGraph(t *Torus, failed map[Edge]bool) bfsGraph {
	g := make(bfsGraph, t.Nodes())
	t.ForEachNode(func(u Node) {
		for j := 0; j < t.D(); j++ {
			for _, dir := range []Direction{Plus, Minus} {
				if !failed[t.EdgeFrom(u, j, dir)] {
					g[u] = append(g[u], int(t.Step(u, j, dir)))
				}
			}
		}
	})
	return g
}

// links counts the directed links of g.
func (g bfsGraph) links() int {
	n := 0
	for _, adj := range g {
		n += len(adj)
	}
	return n
}

// reverse returns g with every link turned around.
func (g bfsGraph) reverse() bfsGraph {
	r := make(bfsGraph, len(g))
	for u, adj := range g {
		for _, v := range adj {
			r[v] = append(r[v], u)
		}
	}
	return r
}

// bfs returns the hop distance from src to every node (−1 where
// unreachable) and the number of shortest paths to each, counting parallel
// links separately. A node leaves the queue only after every node one hop
// closer, so its count is final by then.
func (g bfsGraph) bfs(src int) (dist []int, count []float64) {
	dist, count = make([]int, len(g)), make([]float64, len(g))
	for i := range dist {
		dist[i] = -1
	}
	dist[src], count[src] = 0, 1
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
			if dist[v] == dist[u]+1 {
				count[v] += count[u]
			}
		}
	}
	return dist, count
}

// reaches reports whether g has a path from src to dst.
func (g bfsGraph) reaches(src, dst int) bool {
	dist, _ := g.bfs(src)
	return dist[dst] >= 0
}

func TestLeeDistanceMatchesBFS(t *testing.T) {
	for _, c := range []struct{ k, d int }{{3, 2}, {4, 2}, {5, 2}, {4, 3}} {
		tr := New(c.k, c.d)
		g := linkGraph(tr, nil)
		if len(g) != tr.Nodes() || g.links() != tr.Edges() {
			t.Fatalf("T^%d_%d: graph shape mismatch", c.d, c.k)
		}
		dist, _ := g.bfs(0)
		tr.ForEachNode(func(v Node) {
			if dist[v] != tr.LeeDistance(0, v) {
				t.Fatalf("T^%d_%d: BFS %d vs Lee %d at node %d", c.d, c.k, dist[v], tr.LeeDistance(0, v), v)
			}
		})
	}
}

func TestMinimalPathCountMatchesBFS(t *testing.T) {
	tr := New(5, 2)
	dist, count := linkGraph(tr, nil).bfs(0)
	tr.ForEachNode(func(v Node) {
		if dist[v] != tr.LeeDistance(0, v) {
			t.Fatalf("distance mismatch at %d", v)
		}
		if want := tr.MinimalPathCount(0, v); count[v] != want {
			t.Fatalf("node %v: graph counts %v shortest paths, torus counts %v",
				tr.Coords(v), count[v], want)
		}
	})
}

func TestStronglyConnectedByBFS(t *testing.T) {
	tr := New(4, 2)
	g := linkGraph(tr, nil)
	for _, dir := range []bfsGraph{g, g.reverse()} {
		if dist, _ := dir.bfs(0); slices.Contains(dist, -1) {
			t.Error("torus should be strongly connected")
		}
	}
}

func TestFailedLinksCutBFSReach(t *testing.T) {
	tr := New(3, 1) // ring 0-1-2
	// Remove both edges leaving node 0 in the + and - directions.
	failed := map[Edge]bool{
		tr.EdgeFrom(0, 0, Plus):  true,
		tr.EdgeFrom(0, 0, Minus): true,
	}
	g := linkGraph(tr, failed)
	if g.links() != tr.Edges()-2 {
		t.Fatalf("edges = %d, want %d", g.links(), tr.Edges()-2)
	}
	if g.reaches(0, 1) {
		t.Error("node 0 should be cut off outbound")
	}
	if !g.reaches(1, 0) {
		t.Error("inbound edges to 0 remain")
	}
}
