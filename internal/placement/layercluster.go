package placement

import (
	"fmt"
	"strconv"

	"torusnet/internal/torus"
)

// LayerCluster is uniform along exactly one dimension: each of the k
// principal subtori along Dim receives k^{d-2} processors, but packed into
// the lexicographically smallest nodes of the layer instead of spread out.
// It realizes the weakest premise of Theorem 1's generalization remark —
// "an equal number of processors assigned to each principal subtorus along
// a single dimension" — while being maximally non-uniform in the remaining
// dimensions. Size: k^{d-1}, like a linear placement.
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

// Build implements Spec.
func (s LayerCluster) Build(t *torus.Torus) (*Placement, error) {
	if err := s.Fit(t); err != nil {
		return nil, err
	}
	// k^{d-2} processors per layer, read off the validated node count
	// (k^d / k^2) rather than re-multiplied without an overflow guard.
	perLayer := 1
	if t.D() >= 2 {
		perLayer = t.Nodes() / (t.K() * t.K())
	}
	nodes := make([]torus.Node, 0, t.K()*perLayer)
	for v := 0; v < t.K(); v++ {
		taken := 0
		t.ForEachSubtorusNode(torus.Subtorus{Dim: s.Dim, Value: v}, func(u torus.Node) {
			if taken < perLayer {
				nodes = append(nodes, u)
				taken++
			}
		})
	}
	return New(t, nodes, s.Name()), nil
}
