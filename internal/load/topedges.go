package load

import (
	"sort"

	"torusnet/internal/torus"
)

// EdgeLoad pairs an edge with its expected load.
type EdgeLoad struct {
	Edge torus.Edge
	Load float64
}

// TopEdges returns the n most loaded edges in decreasing load order (ties
// broken by edge index for determinism). n larger than the edge count
// returns all edges. It needs the Loads vector of a ComputeCtx result.
func (r *Result) TopEdges(n int) []EdgeLoad {
	all := make([]EdgeLoad, len(r.Loads))
	for e, v := range r.Loads {
		all[e] = EdgeLoad{Edge: torus.Edge(e), Load: v}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Load != all[j].Load {
			return all[i].Load > all[j].Load
		}
		return all[i].Edge < all[j].Edge
	})
	if n < len(all) {
		all = all[:n]
	}
	return all
}

// LoadAtDistance aggregates the mean load over edges grouped by the Lee
// distance of their source from a reference node — the radial load profile
// around a processor, showing how traffic decays (or funnels) with
// distance.
func (r *Result) LoadAtDistance(ref torus.Node) []float64 {
	t := r.Torus
	maxDist := 0
	dist := make([]int, t.Nodes())
	t.ForEachNode(func(u torus.Node) {
		dist[u] = t.LeeDistance(ref, u)
		if dist[u] > maxDist {
			maxDist = dist[u]
		}
	})
	sums := make([]float64, maxDist+1)
	counts := make([]int, maxDist+1)
	for e, v := range r.Loads {
		d := dist[t.EdgeSource(torus.Edge(e))]
		sums[d] += v
		counts[d]++
	}
	for i := range sums {
		if counts[i] > 0 {
			sums[i] /= float64(counts[i])
		}
	}
	return sums
}
