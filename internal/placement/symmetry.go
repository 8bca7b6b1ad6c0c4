package placement

import "torusnet/internal/torus"

// The translation group of a placement is the one its builder records. The
// linear family's builders, LayerCluster's and Full's place the nodes whose
// weighted coordinate sum Σ c_j·u_j mod k falls in a window of classes
// consecutive residues, and record the coefficients and that count. A
// translation v moves every residue by Σ c_j·v_j, so the placement is a
// union of cosets of G = {v : Σ c_j·v_j ≡ 0 (mod k)}: a window of fewer
// than k residues moves whenever the sum does, so G is then exactly the
// set of translations that fix the placement, of order k^{d−1} since some
// c_j is a unit; a window of all k residues is the whole torus, which
// every translation fixes. A placement whose builder records nothing
// (Random, Explicit, New) has the trivial group, whatever translations
// happen to fix it.

// GroupOrder reads off s alone the order of the translation group Build
// records for s on t: k^{d−1} for Linear, ShiftedDiagonal, MultipleLinear
// with T < k and LayerCluster with d ≥ 2, and k^d for MultipleLinear with
// T = k, LayerCluster on a ring and Full, which fill the torus. Every
// other spec records no group, and its order is 1. It is the built
// placement's GroupOrder. s must fit t.
func GroupOrder(s Spec, t *torus.Torus) int {
	switch v := s.(type) {
	case Linear, ShiftedDiagonal:
		return t.Nodes() / t.K()
	case MultipleLinear:
		if v.T == t.K() {
			return t.Nodes()
		}
		return t.Nodes() / t.K()
	case LayerCluster:
		if t.D() == 1 {
			return t.Nodes()
		}
		return t.Nodes() / t.K()
	case Full:
		return t.Nodes()
	}
	return 1
}

// GroupOrder returns the order of the translation group p's builder
// recorded: k^{d−1}, or k^d when p fills the torus, or 1 when the builder
// recorded none.
func (p *Placement) GroupOrder() int {
	switch p.classes {
	case 0:
		return 1
	case p.t.K():
		return p.t.Nodes()
	}
	return p.t.Nodes() / p.t.K()
}

// Cosets writes into label[u], for every node u of the torus, the coset
// of p's recorded group that holds u, and returns how many cosets there
// are: the residue Σ c_j·u_j mod k (k cosets), or 0 for every node when
// the group is the whole torus (one coset). Every coset lies wholly
// inside or wholly outside p. label must have one entry per node, and p's
// builder must have recorded a group.
func (p *Placement) Cosets(label []int32) int {
	label = label[:p.t.Nodes()]
	switch p.classes {
	case 0:
		panic("placement: Cosets of " + p.name + ", which records no translation group")
	case p.t.K():
		clear(label)
		return 1
	}
	var coordBuf [8]int
	o := odometer{k: p.t.K(), cs: p.coeffs, coords: append(coordBuf[:0], make([]int, len(p.coeffs))...)}
	for u := range label {
		label[u] = int32(o.r)
		o.next()
	}
	return p.t.K()
}

// odometer walks the nodes of a torus in index order, keeping r, their
// weighted coordinate sum Σ c_j·u_j mod k for cs reduced mod k: a step
// that increments coordinate j adds c_j, and so does one that wraps it
// from k−1 to 0, since −(k−1)·c_j ≡ c_j (mod k).
type odometer struct {
	k, r   int
	cs     []int
	coords []int // the current node's coordinates, least significant first
}

// next steps o to the next node.
func (o *odometer) next() {
	for j, c := range o.cs {
		if o.r += c; o.r >= o.k {
			o.r -= o.k
		}
		if o.coords[j]++; o.coords[j] < o.k {
			return
		}
		o.coords[j] = 0
	}
}
