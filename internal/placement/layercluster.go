package placement

import (
	"fmt"
	"strconv"

	"torusnet/internal/torus"
)

// LayerCluster gives each of the k principal subtori along Dim k^{d−2}
// processors, but packed into the lexicographically smallest nodes of the
// layer instead of spread out. It realizes the weakest premise of
// Theorem 1's generalization remark — "an equal number of processors
// assigned to each principal subtorus along a single dimension" — while
// clustering them all in one layer of another dimension. Those smallest
// nodes, in index order, are the ones whose
// most significant other coordinate a is 0 (a = d−1, or d−2 when Dim is
// d−1), so the placement is the hyperplane {u : u_a = 0}: uniform along
// the d−1 dimensions other than a, Dim among them, and the linear
// placement with coefficients e_a and residue 0. Size: k^{d−1}, like a
// linear placement; on a ring, every node.
type LayerCluster struct {
	Dim int
}

// Name implements Spec.
func (s LayerCluster) Name() string {
	var buf [32]byte
	return string(s.AppendName(buf[:0]))
}

// AppendName implements Spec: "layercluster(dim=J)".
func (s LayerCluster) AppendName(b []byte) []byte {
	b = strconv.AppendInt(append(b, "layercluster(dim="...), int64(s.Dim), 10)
	return append(b, ')')
}

// Fit implements Spec.
func (s LayerCluster) Fit(t *torus.Torus) error {
	if s.Dim < 0 || s.Dim >= t.D() {
		return fmt.Errorf("placement: layer cluster dimension %d out of range [0,%d)", s.Dim, t.D())
	}
	return nil
}

// Size implements Spec: k layers of k^{d−2} processors, or one node per
// layer on a ring.
func (s LayerCluster) Size(t *torus.Torus) (int, error) {
	if err := s.Fit(t); err != nil {
		return 0, err
	}
	if t.D() == 1 {
		return t.K(), nil
	}
	return t.Nodes() / t.K(), nil
}

// Build implements Spec: the linear placement u_a ≡ 0, which records its
// translation group, or the whole ring, every residue of u_0, for d = 1.
func (s LayerCluster) Build(t *torus.Torus) (*Placement, error) {
	if err := s.Fit(t); err != nil {
		return nil, err
	}
	d := t.D()
	if d == 1 {
		return selectResidues(t, nil, 0, t.K()).finish(s.Name()), nil
	}
	a := d - 1
	if s.Dim == a {
		a = d - 2
	}
	var coeffBuf [8]int
	coeffs := append(coeffBuf[:0], make([]int, d)...)
	coeffs[a] = 1
	return selectResidues(t, coeffs, 0, 1).finish(s.Name()), nil
}
