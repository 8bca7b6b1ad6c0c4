package routing

import "torusnet/internal/torus"

// This file holds what the pair kernels share. Every Algorithm's
// AccumulatePair adds its weighted per-edge mass directly into a dense
// loads slice through a reusable per-worker PairScratch, so no engine
// allocates per pair.

// TranslationEquivariant marks algorithms whose path sets commute with torus
// translations: C_{p⊕t → q⊕t} = {π ⊕ t : π ∈ C_{p→q}} for every offset t.
// All dimension-ordered schemes in this package qualify because their paths
// depend only on the coordinate deltas of (p, q), never on absolute
// coordinates. MeshODR does NOT qualify (the array metric distinguishes the
// wrap links) and deliberately does not implement the marker.
//
// The load engine's symmetry fast path requires this property: it computes
// one canonical source's edge loads and translates them to every other
// source, which is only sound when paths translate with their endpoints.
type TranslationEquivariant interface {
	Algorithm
	// TranslationEquivariant reports whether the implementation is
	// translation-equivariant. A dynamic guard (not just a marker method) so
	// wrapper algorithms can delegate the answer at runtime.
	TranslationEquivariant() bool
}

// IsTranslationEquivariant reports whether alg declares translation
// equivariance. Unknown algorithms are conservatively non-equivariant.
func IsTranslationEquivariant(alg Algorithm) bool {
	te, ok := alg.(TranslationEquivariant)
	return ok && te.TranslationEquivariant()
}

// PairScratch holds the buffers the pair kernels reuse across pairs. A
// scratch is sized for one torus dimension d and must not be shared
// between goroutines; each load-engine worker owns one.
type PairScratch struct {
	dims   []int
	deltas []torus.Delta
	coords []int
	// FAR's progress lattice: the per-dimension distances, their
	// mixed-radix strides, the progress state, the source's coordinates on
	// the differing dimensions, the node-index step of each, and the
	// directions of the current tie variant.
	dists, stride, progress, from, nodeStep []int
	dirs                                    []torus.Direction
	// paths[x] counts the monotone lattice paths from 0 to state x. It only
	// grows, so a pair allocates only when its lattice is the largest yet.
	paths []float64
}

// NewPairScratch returns a scratch sized for t. It is valid for any torus
// with the same dimension.
func NewPairScratch(t *torus.Torus) *PairScratch {
	d := t.D()
	ints := make([]int, 7*d)
	return &PairScratch{
		dims:     ints[0:0:d],
		coords:   ints[d : 2*d : 2*d],
		dists:    ints[2*d : 3*d : 3*d],
		stride:   ints[3*d : 4*d : 4*d],
		progress: ints[4*d : 5*d : 5*d],
		from:     ints[5*d : 6*d : 6*d],
		nodeStep: ints[6*d : 7*d : 7*d],
		deltas:   make([]torus.Delta, 0, d),
		dirs:     make([]torus.Direction, d),
	}
}

// pathCounts returns sc.paths resized to n, growing it only when its
// capacity falls short. Callers overwrite every entry they read.
func (sc *PairScratch) pathCounts(n int) []float64 {
	if cap(sc.paths) < n {
		sc.paths = make([]float64, n)
	}
	return sc.paths[:n]
}

// differingInto fills sc.dims and sc.deltas with the dimensions where p and
// q differ and their canonical correction deltas.
func (sc *PairScratch) differingInto(t *torus.Torus, p, q torus.Node) ([]int, []torus.Delta) {
	dims, deltas := sc.dims[:0], sc.deltas[:0]
	for j := 0; j < t.D(); j++ {
		del := torus.CoordDelta(t.Coord(p, j), t.Coord(q, j), t.K())
		if del.Dist > 0 {
			dims = append(dims, j)
			deltas = append(deltas, del)
		}
	}
	sc.dims, sc.deltas = dims, deltas
	return dims, deltas
}

// accumulateDim adds w to loads[e] for every edge e of a full dimension-j
// correction of 'steps' hops starting at 'from', and returns the node
// reached.
func accumulateDim(t *torus.Torus, from torus.Node, j int, dir torus.Direction, steps int, w float64, loads []float64) torus.Node {
	cur := from
	for s := 0; s < steps; s++ {
		e := t.EdgeFrom(cur, j, dir)
		loads[e] += w
		cur = t.Step(cur, j, dir)
	}
	return cur
}

// accumulateSegments adds w times the UDR order-position masses of the
// pair p→q: a path corrects dimension j after exactly the dimensions in
// some set S ⊆ D\{j}, and the |S|!·(s−1−|S|)! orders with that property
// give each edge of the segment "S already corrected" the probability
// |S|!·(s−1−|S|)!/s!. Segments for
// distinct (j, S) are edge-disjoint, so the load is a direct sum over the
// 2^{s−1}·s segments. With ties true a tied dimension's segment splits its
// mass in half across both arcs (UDR-multi); otherwise it takes the
// canonical (+) arc (UDR).
func accumulateSegments(t *torus.Torus, p, q torus.Node, w float64, loads []float64, sc *PairScratch, ties bool) {
	dims, deltas := sc.differingInto(t, p, q)
	s := len(dims)
	if s == 0 {
		return
	}
	sFact := factorial(s)
	coords := sc.coords
	for jIdx := 0; jIdx < s; jIdx++ {
		for mask := 0; mask < 1<<(s-1); mask++ {
			// Start node: p with the dimensions in S corrected to q.
			t.CoordsInto(p, coords)
			size := 0
			bit := 0
			for i := 0; i < s; i++ {
				if i == jIdx {
					continue
				}
				if mask&(1<<bit) != 0 {
					coords[dims[i]] = t.Coord(q, dims[i])
					size++
				}
				bit++
			}
			seg := factorial(size) * factorial(s-1-size) / sFact
			start := t.NodeAt(coords)
			del := deltas[jIdx]
			if ties && del.Tie {
				accumulateDim(t, start, dims[jIdx], torus.Plus, del.Dist, seg/2*w, loads)
				accumulateDim(t, start, dims[jIdx], torus.Minus, del.Dist, seg/2*w, loads)
			} else {
				accumulateDim(t, start, dims[jIdx], del.Dir, del.Dist, seg*w, loads)
			}
		}
	}
}

// TranslationEquivariant implements the marker: ODR paths depend only on
// coordinate deltas.
func (ODR) TranslationEquivariant() bool { return true }

// TranslationEquivariant implements the marker.
func (ODRMulti) TranslationEquivariant() bool { return true }

// TranslationEquivariant implements the marker.
func (UDR) TranslationEquivariant() bool { return true }

// TranslationEquivariant implements the marker.
func (UDRMulti) TranslationEquivariant() bool { return true }

// TranslationEquivariant implements the marker: ODROrder permutes the
// correction order but still routes by coordinate deltas only.
func (o ODROrder) TranslationEquivariant() bool { return true }

// TranslationEquivariant implements the marker: FAR's path set is every
// minimal path, which is determined by the coordinate deltas alone.
func (FAR) TranslationEquivariant() bool { return true }
