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
// where ways_to(x) = f(x) counts the monotone lattice paths from 0 to x and
// ways_from(x + e_i) = f(δ − x − e_i) those from x + e_i to the far corner
// δ, so totalPaths = f(δ). One Pascal recurrence f(x) = Σᵢ f(x − eᵢ) fills
// f over the whole lattice once per pair; its values are the exact
// multinomial coefficients while they stay below 2⁵³. Tie variants are
// equiprobable (they contain equally many paths), share the lattice, and
// their edges along opposite ring arcs are disjoint, so their
// contributions add. The pair weight multiplies each edge's probability
// last.
func (FAR) AccumulatePair(t *torus.Torus, p, q torus.Node, w float64, loads []float64, sc *PairScratch) {
	dims, deltas := sc.differingInto(t, p, q)
	s := len(dims)
	if s == 0 {
		return
	}
	dists, stride, progress, dirs := sc.dists[:s], sc.stride[:s], sc.progress[:s], sc.dirs[:s]
	// The lattice has ∏(dist+1) ≤ k^d = t.Nodes() ≤ torus.MaxNodes states,
	// so overflow is impossible for a validated torus; assert it anyway.
	// State x has the mixed-radix index Σ xᵢ·strideᵢ.
	tied, states := 0, 1
	for i, del := range deltas {
		dists[i], stride[i] = del.Dist, states
		states *= del.Dist + 1
		if states > torus.MaxNodes {
			panic("routing: FAR state lattice exceeds torus.MaxNodes")
		}
		if del.Tie {
			tied++
		}
	}
	f := sc.pathCounts(states)
	f[0] = 1
	clear(progress)
	for st := 1; st < states; st++ {
		advance(progress, dists)
		ways := 0.0
		for i, x := range progress {
			if x > 0 {
				ways += f[st-stride[i]]
			}
		}
		f[st] = ways
	}
	last := states - 1
	totalPaths := f[last]
	variantProb := 1.0 / float64(int(1)<<tied)

	// Walk the lattice in index order for each variant, stepping the node
	// along with the odometer: nodeStep[i] is the node-index change of one
	// hop along dimension i, and coords[i] the coordinate it has reached.
	k := t.K()
	from, coords, nodeStep := sc.from[:s], sc.coords[:s], sc.nodeStep[:s]
	for i, j := range dims {
		from[i], nodeStep[i] = t.Coord(p, j), 1
		for ; j > 0; j-- {
			nodeStep[i] *= k
		}
	}
	for mask := 0; mask < 1<<tied; mask++ {
		tieDirs(deltas, mask, dirs)
		clear(progress)
		copy(coords, from)
		cur := int(p)
		for st := 0; st < states; st++ {
			if st > 0 {
				cur = stepOdometer(cur, progress, dists, from, coords, nodeStep, dirs, k)
			}
			waysTo := f[st]
			for i, x := range progress {
				if x == dists[i] {
					continue
				}
				waysFrom := f[last-st-stride[i]]
				prob := variantProb * waysTo * waysFrom / totalPaths
				loads[t.EdgeFrom(torus.Node(cur), dims[i], dirs[i])] += prob * w
			}
		}
	}
}

// advance steps the mixed-radix odometer progress (digit i runs 0..dists[i],
// digit 0 fastest) to the next lattice state.
func advance(progress, dists []int) {
	for i := range progress {
		if progress[i] < dists[i] {
			progress[i]++
			return
		}
		progress[i] = 0
	}
}

// stepOdometer advances progress like advance and moves node cur with it:
// a digit that steps moves one hop along its dimension in its direction,
// and a digit that wraps to 0 moves back to the source's coordinate
// from[i]. coords[i] tracks the coordinate digit i has reached; the new
// node is returned.
func stepOdometer(cur int, progress, dists, from, coords, nodeStep []int, dirs []torus.Direction, k int) int {
	for i, c := range coords {
		next := from[i]
		if progress[i] < dists[i] {
			progress[i]++
			next = c + 1
			if dirs[i] == torus.Minus {
				next = c - 1
			}
			if next == k {
				next = 0
			} else if next < 0 {
				next = k - 1
			}
			coords[i] = next
			return cur + (next-c)*nodeStep[i]
		}
		progress[i], coords[i] = 0, next
		cur += (next - c) * nodeStep[i]
	}
	return cur
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
