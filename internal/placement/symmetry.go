package placement

import "torusnet/internal/torus"

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
// count independent of the stabilizer size. The linear family's builders
// (and Full's) record their group, which is listed in O(|P|·d); every other
// placement's is searched for in O(|P|²·d). Both give the same offsets in
// the same order.
func (p *Placement) TranslationStabilizer() [][]int {
	p.stabOnce.Do(func() {
		if p.classes > 0 {
			p.stab = p.cosetStabilizer()
		} else {
			p.stab = p.computeStabilizer()
		}
	})
	return p.stab
}

// GroupOrder reads off s alone the order of the translation group Build
// records for s on t, which TranslationStabilizer then lists without a
// search: k^{d−1} for Linear, ShiftedDiagonal and MultipleLinear with
// T < k, and k^d for MultipleLinear with T = k and Full, which fill the
// torus. ok is false for every other spec, whose stabilizer is searched
// for. s must fit t.
func GroupOrder(s Spec, t *torus.Torus) (order int, ok bool) {
	switch v := s.(type) {
	case Linear, ShiftedDiagonal:
		return t.Nodes() / t.K(), true
	case MultipleLinear:
		if v.T == t.K() {
			return t.Nodes(), true
		}
		return t.Nodes() / t.K(), true
	case Full:
		return t.Nodes(), true
	}
	return 0, false
}

// cosetStabilizer lists the group a builder recorded. The processors fill
// p.classes residue classes of Σ c_j·u_j mod k, so a translation v
// stabilizes them exactly when Σ c_j·v_j ≡ 0 (mod k): a window of fewer
// than k consecutive classes moves whenever the sum does, while classes = k
// is the whole torus, which every translation fixes. Each stabilizing v
// takes the first processor p₀ to the processor p₀ ⊕ v, so the group is
// q ⊖ p₀ over the processors q with Σ c_j·(q_j − p₀_j) ≡ 0, in increasing
// node order: what computeStabilizer finds, in O(|P|·d).
func (p *Placement) cosetStabilizer() [][]int {
	d, k, n := p.t.D(), p.t.K(), len(p.nodes)
	whole := p.classes == k
	order := n
	if !whole {
		order = n / p.classes
	}
	out := p.offsets(order, d)
	var firstBuf [8]int
	first := append(firstBuf[:0], make([]int, d)...)
	p.t.CoordsInto(p.nodes[0], first)
	h := 0
	for _, q := range p.nodes {
		if h == order {
			break
		}
		off := out[h]
		p.t.CoordsInto(q, off)
		r := 0
		for j, c := range off {
			if c -= first[j]; c < 0 {
				c += k
			}
			off[j] = c
			if !whole {
				r += p.coeffs[j] * c
			}
		}
		if r%k == 0 {
			h++
		}
	}
	if h != order {
		panic("placement: the recorded translation group does not match the processors")
	}
	return out
}

// offsets returns order rows of d ints each, views of one backing array
// in p.stabInts, reusing p's pooled stabilizer storage.
func (p *Placement) offsets(order, d int) [][]int {
	ints := p.stabInts[:0]
	if cap(ints) < order*d {
		ints = make([]int, 0, order*d)
	}
	ints = ints[:order*d]
	out := p.stab[:0]
	if cap(out) < order {
		out = make([][]int, 0, order)
	}
	for h := 0; h < order; h++ {
		out = append(out, ints[h*d:(h+1)*d:(h+1)*d])
	}
	p.stabInts = ints
	return out
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
		out := p.offsets(1, d)
		clear(out[0])
		return out
	}
	// Row-major strides of the torus node encoding; the product was already
	// validated against torus.MaxNodes when the torus was constructed. The
	// strides, the candidate offset, the flattened coordinates and the
	// indices of the stabilizing candidates share p's pooled scratch.
	need := (n+2)*d + n
	ints := p.scratch[:0]
	if cap(ints) < need {
		ints = make([]int, 0, need)
	}
	ints = ints[:need]
	p.scratch = ints
	strides, cand, coords, hits := ints[:d], ints[d:2*d], ints[2*d:(n+2)*d], ints[(n+2)*d:(n+2)*d]
	strides[0] = 1
	for j := 1; j < d; j++ {
		strides[j] = strides[j-1] * k
	}
	for i, u := range p.nodes {
		p.t.CoordsInto(u, coords[i*d:(i+1)*d])
	}
	// Test every candidate first, then give the stabilizing offsets one
	// backing array of exactly their size.
	for i := 0; i < n; i++ {
		diffInto(cand, coords[i*d:(i+1)*d], coords[:d], k)
		if stabilizedByCoords(p.member, coords, cand, strides, k) {
			hits = append(hits, i)
		}
	}
	out := p.offsets(len(hits), d)
	for h, i := range hits {
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
