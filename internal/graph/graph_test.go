package graph

import "testing"

func TestBFSOnPath(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	dist := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	back := g.BFS(3)
	if back[0] != -1 {
		t.Error("0 should be unreachable from 3 in a directed path")
	}
}

func TestShortestPathCountsParallelEdges(t *testing.T) {
	// Two parallel edges 0 -> 1 count as two shortest paths.
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	_, count := g.ShortestPathCounts(0)
	if count[1] != 2 {
		t.Errorf("parallel-edge count = %v, want 2", count[1])
	}
}

func TestReverse(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	r := g.Reverse()
	if !r.Reachable(2, 0) {
		t.Error("reverse graph should reach 0 from 2")
	}
	if r.Reachable(0, 2) {
		t.Error("reverse graph should not reach 2 from 0")
	}
	if r.Edges() != 2 {
		t.Errorf("reverse edges = %d", r.Edges())
	}
}

func TestStronglyConnectedNegative(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	if g.StronglyConnected() {
		t.Error("one-way pair is not strongly connected")
	}
	if !New(0).StronglyConnected() {
		t.Error("empty graph is vacuously strongly connected")
	}
}

func TestOutDegreeAndForEachSuccessor(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	if g.OutDegree(0) != 3 {
		t.Errorf("out-degree %d, want 3", g.OutDegree(0))
	}
	sum := 0
	g.ForEachSuccessor(0, func(v int) { sum += v })
	if sum != 4 {
		t.Errorf("successor sum %d, want 4", sum)
	}
}

func TestReachableSelf(t *testing.T) {
	g := New(1)
	if !g.Reachable(0, 0) {
		t.Error("node should reach itself")
	}
}
