package optimize

import (
	"fmt"

	"torusnet/internal/lee"
	"torusnet/internal/load"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// LeeSeed builds the constructive Lee-sphere tiling seed: size processors
// spread by farthest-point sampling so that their Lee balls of the largest
// feasible radius t (the biggest t with size·|B_t| ≤ k^d, where |B_t| is
// lee.BallSize) pack the torus. When the ball size divides the node count
// exactly the greedy sweep recovers a perfect t-hop tiling lattice; in
// general it maximizes the minimum pairwise Lee distance greedily, which is
// the spread the §4 density bounds reward. The construction is
// deterministic (node 0 first, ties by smallest index) and runs in
// O(size·k^d·d), so it is the natural instant warm start for the annealing
// and branch-and-bound strategies (Config.Start).
func LeeSeed(t *torus.Torus, size int, alg routing.Algorithm, workers int) (*Result, error) {
	if size < 2 || size > t.Nodes() {
		return nil, fmt.Errorf("optimize: placement size %d out of range [2, %d]", size, t.Nodes())
	}
	p := placement.New(t, leeSeedNodes(t, size), "lee-sphere")
	e := load.Compute(p, alg, load.Options{Workers: workers}).Max
	res := &Result{
		Best:      p,
		BestEMax:  e,
		StartEMax: e,
		Strategy:  StrategyLeeSphere,
	}
	return finish(res), nil
}

// leeSeedNodes is the placement-only half of LeeSeed: greedy farthest-point
// sampling under the Lee metric, starting from node 0.
func leeSeedNodes(t *torus.Torus, size int) []torus.Node {
	n := t.Nodes()
	chosen := make([]torus.Node, 0, size)
	chosen = append(chosen, 0)
	// dist[u] is the Lee distance from u to the nearest chosen node.
	dist := make([]int, n)
	for u := 0; u < n; u++ {
		dist[u] = t.LeeDistance(torus.Node(u), 0)
	}
	for len(chosen) < size {
		best, bestDist := torus.Node(0), -1
		for u := 0; u < n; u++ {
			if dist[u] > bestDist {
				best, bestDist = torus.Node(u), dist[u]
			}
		}
		chosen = append(chosen, best)
		for u := 0; u < n; u++ {
			if d := t.LeeDistance(torus.Node(u), best); d < dist[u] {
				dist[u] = d
			}
		}
	}
	return chosen
}

// TilingRadius returns the largest Lee-ball radius t with
// size·|B_t(k,d)| ≤ k^d — the t-hop packing target LeeSeed aims for. A
// placement whose pairwise Lee distances all exceed 2t packs size disjoint
// t-balls into the torus; equality of size·|B_t| with k^d is the perfect
// tiling case.
func TilingRadius(t *torus.Torus, size int) int {
	r := 0
	for size*lee.BallSize(t.K(), t.D(), r+1) <= t.Nodes() {
		r++
	}
	return r
}
