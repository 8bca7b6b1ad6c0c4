package placement

// TranslationStabilizer returns every translation offset t (as a length-D
// coordinate vector with entries in [0, k)) for which P ⊕ t = P, including
// the identity. For a linear placement Σ c_i p_i ≡ c (mod k) these are
// exactly the k^{d−1} offsets with Σ c_i t_i ≡ 0 (mod k) — the symmetry the
// load engine's fast path exploits. A placement with no structure (Random,
// most Explicit sets) returns only the identity.
//
// The subgroup is a property of the immutable placement, so it is computed
// once and cached; callers must not mutate the returned offsets. Offsets
// are ordered by increasing node index of the first processor's image
// (identity first) and share one backing array, keeping the allocation
// count independent of the stabilizer size.
func (p *Placement) TranslationStabilizer() [][]int {
	p.stabOnce.Do(func() { p.stab = p.computeStabilizer() })
	return p.stab
}

// computeStabilizer tries the difference vectors q ⊖ p₀ for the first
// processor p₀: any stabilizing translation must map p₀ onto some
// processor, so the search is O(|P|²·d) pure index arithmetic (coordinates
// are flattened once and images recomposed from strides, avoiding the
// div/mod of Torus.Translate in the hot membership loop).
func (p *Placement) computeStabilizer() [][]int {
	d, k := p.t.D(), p.t.K()
	n := len(p.nodes)
	if n == 0 {
		return [][]int{make([]int, d)}
	}
	// Row-major strides of the torus node encoding; the product was already
	// validated against torus.MaxNodes when the torus was constructed. The
	// strides, the candidate offset and the flattened coordinates share one
	// allocation.
	ints := make([]int, (n+2)*d)
	strides, cand, coords := ints[:d], ints[d:2*d], ints[2*d:]
	strides[0] = 1
	for j := 1; j < d; j++ {
		strides[j] = strides[j-1] * k
	}
	for i, u := range p.nodes {
		p.t.CoordsInto(u, coords[i*d:(i+1)*d])
	}
	// Test every candidate first, then give the stabilizing offsets one
	// backing array of exactly their size: most placements only have the
	// identity.
	var hits []int
	for i := 0; i < n; i++ {
		diffInto(cand, coords[i*d:(i+1)*d], coords[:d], k)
		if stabilizedByCoords(p.member, coords, cand, strides, k) {
			hits = append(hits, i)
		}
	}
	backing := make([]int, len(hits)*d)
	out := make([][]int, len(hits))
	for h, i := range hits {
		out[h] = backing[h*d : (h+1)*d : (h+1)*d]
		diffInto(out[h], coords[i*d:(i+1)*d], coords[:d], k)
	}
	return out
}

// diffInto writes the coordinate difference q ⊖ p, wrapped into [0, k).
func diffInto(dst, q, p []int, k int) {
	for j := range dst {
		c := q[j] - p[j]
		if c < 0 {
			c += k
		}
		dst[j] = c
	}
}

// stabilizedByCoords reports whether translating every processor (given as
// flattened canonical coordinates) by offset lands inside the placement.
// Both coordinates and offset entries are already in [0, k), so wrapping is
// one conditional subtraction.
func stabilizedByCoords(member []uint64, coords, offset, strides []int, k int) bool {
	d := len(offset)
	for i := 0; i < len(coords); i += d {
		img := 0
		for j := 0; j < d; j++ {
			c := coords[i+j] + offset[j]
			if c >= k {
				c -= k
			}
			img += c * strides[j]
		}
		if member[img>>6]&(1<<(img&63)) == 0 {
			return false
		}
	}
	return true
}
