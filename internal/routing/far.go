package routing

import (
	"math/rand"

	"torusnet/internal/torus"
)

// FAR is fully adaptive minimal routing: C^FAR_{p→q} is the set of *all*
// shortest paths between p and q, i.e. every interleaving of unit steps
// (not just full-dimension corrections) and, for tied dimensions (k even,
// coordinates k/2 apart), both directions. The paper's load model
// (Definition 4) rewards large path sets; FAR is the extreme point and
// serves as the generalization baseline the conclusion alludes to.
//
// |C^FAR_{p→q}| = 2^T · (Σ dist_j)! / Π (dist_j!) where T is the number of
// tied dimensions.
type FAR struct{}

// Name implements Algorithm.
func (FAR) Name() string { return "FAR" }

// PathCount implements Algorithm.
func (FAR) PathCount(t *torus.Torus, p, q torus.Node) float64 {
	return t.MinimalPathCount(p, q)
}

// farProblem captures the per-pair correction geometry.
type farProblem struct {
	dims   []int         // differing dimensions
	dists  []int         // cyclic distances per differing dimension
	deltas []torus.Delta // canonical deltas
	tied   []int         // indices (into dims) of tied dimensions
	total  int           // Lee distance
}

func newFARProblem(t *torus.Torus, p, q torus.Node) farProblem {
	var pr farProblem
	for j := 0; j < t.D(); j++ {
		del := torus.CoordDelta(t.Coord(p, j), t.Coord(q, j), t.K())
		if del.Dist == 0 {
			continue
		}
		if del.Tie {
			pr.tied = append(pr.tied, len(pr.dims))
		}
		pr.dims = append(pr.dims, j)
		pr.dists = append(pr.dists, del.Dist)
		pr.deltas = append(pr.deltas, del)
		pr.total += del.Dist
	}
	return pr
}

// variantDirs returns the direction of each differing dimension for the
// given tie-assignment mask (bit set = Minus).
func (pr farProblem) variantDirs(mask int) []torus.Direction {
	dirs := make([]torus.Direction, len(pr.dims))
	tieDirs(pr.deltas, mask, dirs)
	return dirs
}

// tieDirs fills dirs with the direction of each delta under the
// tie-assignment mask: the canonical direction, except that the b-th tied
// delta turns Minus when bit b of mask is set.
func tieDirs(deltas []torus.Delta, mask int, dirs []torus.Direction) {
	bit := 0
	for i, del := range deltas {
		dirs[i] = del.Dir
		if del.Tie {
			if mask&(1<<bit) != 0 {
				dirs[i] = torus.Minus
			}
			bit++
		}
	}
}

// multinomial returns (Σ parts)! / Π parts! as float64.
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

// ForEachPath implements Algorithm. Paths are enumerated variant by variant
// (tie masks in increasing order), and within a variant by always extending
// with the lowest eligible dimension first.
func (FAR) ForEachPath(t *torus.Torus, p, q torus.Node, visit func(Path) bool) {
	pr := newFARProblem(t, p, q)
	s := len(pr.dims)
	progress := make([]int, s)
	for mask := 0; mask < 1<<len(pr.tied); mask++ {
		dirs := pr.variantDirs(mask)
		edges := make([]torus.Edge, 0, pr.total)
		var rec func(cur torus.Node, done int) bool
		rec = func(cur torus.Node, done int) bool {
			if done == pr.total {
				return visit(Path{Start: p, Edges: append([]torus.Edge(nil), edges...)})
			}
			for i := 0; i < s; i++ {
				if progress[i] == pr.dists[i] {
					continue
				}
				e := t.EdgeFrom(cur, pr.dims[i], dirs[i])
				edges = append(edges, e)
				progress[i]++
				cont := rec(t.EdgeTarget(e), done+1)
				progress[i]--
				edges = edges[:len(edges)-1]
				if !cont {
					return false
				}
			}
			return true
		}
		if !rec(p, 0) {
			return
		}
	}
}

// AccumulatePair implements Algorithm using dynamic programming over the
// progress lattice. For a fixed tie variant, the probability that a uniform
// random shortest path crosses the edge that advances dimension i at
// progress state x is
//
//	ways_to(x) · ways_from(x + e_i) / totalPaths ,
//
// where ways_to and ways_from are multinomial coefficients. Tie variants
// are equiprobable (they contain equally many paths) and their edges along
// opposite ring arcs are disjoint, so their contributions add. The pair
// weight multiplies each edge's probability last.
func (FAR) AccumulatePair(t *torus.Torus, p, q torus.Node, w float64, loads []float64, sc *PairScratch) {
	dims, deltas := sc.differingInto(t, p, q)
	s := len(dims)
	if s == 0 {
		return
	}
	dists, progress, rest, dirs := sc.dists[:s], sc.progress[:s], sc.rest[:s], sc.dirs[:s]
	tied := 0
	for i, del := range deltas {
		dists[i] = del.Dist
		if del.Tie {
			tied++
		}
	}
	totalPaths := multinomial(dists)
	variantProb := 1.0 / float64(int(1)<<tied)

	// The lattice has ∏(dist+1) ≤ k^d = t.Nodes() ≤ torus.MaxNodes states,
	// so overflow is impossible for a validated torus; assert it anyway.
	states := 1
	for _, dist := range dists {
		states *= dist + 1
		if states > torus.MaxNodes {
			panic("routing: FAR state lattice exceeds torus.MaxNodes")
		}
	}
	from, coords := sc.from, sc.coords
	t.CoordsInto(p, from)

	for mask := 0; mask < 1<<tied; mask++ {
		tieDirs(deltas, mask, dirs)
		for st := 0; st < states; st++ {
			// Decode the mixed-radix state and find its node.
			rem := st
			for i := 0; i < s; i++ {
				progress[i] = rem % (dists[i] + 1)
				rem /= dists[i] + 1
			}
			waysTo := multinomial(progress)
			copy(coords, from)
			for i := 0; i < s; i++ {
				j := dims[i]
				if dirs[i] == torus.Plus {
					coords[j] = torus.Mod(from[j]+progress[i], t.K())
				} else {
					coords[j] = torus.Mod(from[j]-progress[i], t.K())
				}
			}
			cur := t.NodeAt(coords)
			for i := 0; i < s; i++ {
				if progress[i] == dists[i] {
					continue
				}
				// ways_from(x + e_i): remaining distances after the step.
				progress[i]++
				for l := 0; l < s; l++ {
					rest[l] = dists[l] - progress[l]
				}
				waysFrom := multinomial(rest)
				progress[i]--
				prob := variantProb * waysTo * waysFrom / totalPaths
				loads[t.EdgeFrom(cur, dims[i], dirs[i])] += prob * w
			}
		}
	}
}

// SamplePath implements Algorithm: pick a tie variant uniformly, then grow
// the path by choosing the next dimension with probability proportional to
// its remaining distance (which makes every interleaving equally likely).
func (FAR) SamplePath(t *torus.Torus, p, q torus.Node, rng *rand.Rand) Path {
	pr := newFARProblem(t, p, q)
	s := len(pr.dims)
	//lint:ignore overflowvol len(pr.tied) ≤ d ≤ 28 for a validated torus, far below the int bit width.
	dirs := pr.variantDirs(rng.Intn(1 << len(pr.tied)))
	remaining := append([]int(nil), pr.dists...)
	left := pr.total
	edges := make([]torus.Edge, 0, pr.total)
	cur := p
	for left > 0 {
		r := rng.Intn(left)
		i := 0
		for ; i < s; i++ {
			if r < remaining[i] {
				break
			}
			r -= remaining[i]
		}
		e := t.EdgeFrom(cur, pr.dims[i], dirs[i])
		edges = append(edges, e)
		cur = t.EdgeTarget(e)
		remaining[i]--
		left--
	}
	return Path{Start: p, Edges: edges}
}
