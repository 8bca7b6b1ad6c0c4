package placement

import (
	"fmt"
	"math/rand"
	"testing"

	"torusnet/internal/torus"
)

// TestRandomBuildMatchesMathRand pins Random.Build, which runs math/rand's
// Perm loop on a pooled, re-seeded generator, to the placement a fresh
// rand.New(rand.NewSource(seed)).Perm would give: the sorted first Count
// entries. Tori alternate in size, so a stale or undersized pooled buffer
// shows. Every count is checked on tori of up to 256 nodes; larger tori
// check the end points and a spread in between.
func TestRandomBuildMatchesMathRand(t *testing.T) {
	for k := 2; k <= 16; k++ {
		for d := 1; d <= 4; d++ {
			tr := torus.New(k, d)
			n := tr.Nodes()
			counts := []int{0, 1, n / 2, n}
			if n <= 256 {
				counts = counts[:0]
				for c := 0; c <= n; c++ {
					counts = append(counts, c)
				}
			}
			for seed := int64(0); seed < 50; seed++ {
				perm := rand.New(rand.NewSource(seed)).Perm(n)
				in := make([]bool, n) // in[u]: u is among perm[:c]
				prev := 0
				for _, c := range counts {
					for _, u := range perm[prev:c] {
						in[u] = true
					}
					prev = c
					spec := Random{Count: c, Seed: seed}
					nodes := mustBuild(t, spec, tr).Nodes()
					if len(nodes) != c {
						t.Fatalf("%s on %s: %d nodes, want %d", spec.Name(), tr, len(nodes), c)
					}
					for i, u := range nodes {
						if !in[u] || (i > 0 && u <= nodes[i-1]) {
							t.Fatalf("%s on %s: nodes %v are not the sorted first %d of Perm(%d)", spec.Name(), tr, nodes, c, n)
						}
					}
				}
			}
		}
	}
}

// TestResidueSpecsMatchCoordinateSums pins the linear family's odometer
// walk (selectResidues) to its definition: a node is a processor exactly
// when its weighted coordinate sum mod k lies in the spec's residue
// window. It also checks that every construction's bitset, processor list
// and Contains agree, and that Fit errs exactly when Build does.
func TestResidueSpecsMatchCoordinateSums(t *testing.T) {
	for k := 2; k <= 7; k++ {
		for d := 1; d <= 4; d++ {
			tr := torus.New(k, d)
			var specs []Spec
			for c := -k; c <= k; c++ {
				specs = append(specs, Linear{C: c}, ShiftedDiagonal{Shift: c},
					Linear{C: c, Coeffs: coeffVector(d, c, k)})
				for tt := -1; tt <= k+1; tt++ {
					specs = append(specs, MultipleLinear{T: tt, Start: c}, MultipleLinear{T: tt, Start: c, Coeffs: coeffVector(d, c+tt, k)})
				}
			}
			specs = append(specs, Full{}, Linear{Coeffs: make([]int, d+1)}, Linear{Coeffs: make([]int, d)})
			n := tr.Nodes()
			for _, spec := range []Spec{
				Random{Count: -1}, Random{Count: n}, Random{Count: n + 1, Seed: 3},
				Explicit{Label: "ok", Coords: [][]int{make([]int, d)}}, Explicit{Label: "arity", Coords: [][]int{make([]int, d+1)}},
				LayerCluster{Dim: -1}, LayerCluster{Dim: d - 1}, LayerCluster{Dim: d},
			} {
				if _, err := spec.Build(tr); (spec.Fit(tr) == nil) != (err == nil) {
					t.Fatalf("%s on %s: Fit %v, Build %v", spec.Name(), tr, spec.Fit(tr), err)
				}
			}
			for _, spec := range specs {
				p, err := spec.Build(tr)
				if fitErr := spec.Fit(tr); (fitErr == nil) != (err == nil) || fitErr != nil && fitErr.Error() != err.Error() {
					t.Fatalf("%s on %s: Fit %v, Build %v", spec.Name(), tr, fitErr, err)
				}
				if err != nil {
					continue
				}
				want := residueMembers(tr, spec)
				if p.Name() != spec.Name() {
					t.Fatalf("%s on %s: built placement named %q", spec.Name(), tr, p.Name())
				}
				var nodes []torus.Node
				for u := 0; u < tr.Nodes(); u++ {
					if got := p.Contains(torus.Node(u)); got != want[u] {
						t.Fatalf("%s on %s: Contains(%v) = %v, want %v", spec.Name(), tr, tr.Coords(torus.Node(u)), got, want[u])
					}
					if want[u] {
						nodes = append(nodes, torus.Node(u))
					}
				}
				if len(nodes) != p.Size() {
					t.Fatalf("%s on %s: %d processors, want %d", spec.Name(), tr, p.Size(), len(nodes))
				}
				for i, u := range p.Nodes() {
					if u != nodes[i] {
						t.Fatalf("%s on %s: Nodes() = %v, want %v", spec.Name(), tr, p.Nodes(), nodes)
					}
				}
			}
		}
	}
}

// TestResidueClasses checks the t ResidueClasses reads off a spec against
// the built placement: exactly t coordinate-sum residues mod k, each class
// fully populated — the shape Theorems 2–5 are stated for — and no count
// for the shapes they do not cover.
func TestResidueClasses(t *testing.T) {
	for k := 2; k <= 6; k++ {
		for d := 2; d <= 3; d++ {
			tr := torus.New(k, d)
			full := tr.Nodes() / k
			for _, spec := range []Spec{
				Linear{C: k - 1}, ShiftedDiagonal{Shift: 1}, MultipleLinear{T: 1, Start: 2},
				MultipleLinear{T: (k + 1) / 2, Start: k - 1}, MultipleLinear{T: k, Start: 1},
			} {
				want, ok := ResidueClasses(spec)
				if !ok {
					t.Fatalf("%s: no residue-class count", spec.Name())
				}
				counts := make([]int, k)
				for _, u := range mustBuild(t, spec, tr).Nodes() {
					sum := 0
					for _, c := range tr.Coords(u) {
						sum += c
					}
					counts[sum%k]++
				}
				got := 0
				for r, c := range counts {
					if c != 0 && c != full {
						t.Fatalf("%s on %s: residue %d holds %d of its %d nodes", spec.Name(), tr, r, c, full)
					}
					if c == full {
						got++
					}
				}
				if got != want {
					t.Errorf("%s on %s: %d full residue classes, ResidueClasses says %d", spec.Name(), tr, got, want)
				}
			}
		}
	}
	for _, spec := range []Spec{
		Full{}, Random{Count: 4}, LayerCluster{},
		Linear{Coeffs: []int{1, 2}}, MultipleLinear{T: 2, Coeffs: []int{1, 1}},
	} {
		if got, ok := ResidueClasses(spec); ok {
			t.Errorf("%s: ResidueClasses = %d, want no count", spec.Name(), got)
		}
	}
}

// coeffVector is a coefficient vector of length d with mixed signs and
// some non-units, varied by salt.
func coeffVector(d, salt, k int) []int {
	out := make([]int, d)
	for j := range out {
		out[j] = (salt+3*j)%(k+2) - 2
	}
	return out
}

// residueMembers evaluates a linear-family spec's membership from its
// definition, node by node.
func residueMembers(tr *torus.Torus, spec Spec) []bool {
	k := tr.K()
	var coeffs []int
	start, count := 0, 1
	switch s := spec.(type) {
	case Linear:
		coeffs, start = s.Coeffs, s.C
	case ShiftedDiagonal:
		start = s.Shift
	case MultipleLinear:
		coeffs, start, count = s.Coeffs, s.Start, s.T
	case Full:
		count = k
	}
	in := make([]bool, tr.Nodes())
	for u := range in {
		sum := 0
		for j, c := range tr.Coords(torus.Node(u)) {
			w := 1
			if coeffs != nil {
				w = coeffs[j]
			}
			sum += w * c
		}
		in[u] = torus.Mod(sum-start, k) < count
	}
	return in
}

// TestSpecCount pins Size against Build for every spec over a grid of
// tori: the same count where Build succeeds, and the same error where Fit
// rejects (wrong coefficient arity, no unit coefficient, t past k, random
// counts out of range, coordinates of the wrong arity, a layer dimension
// past d).
func TestSpecCount(t *testing.T) {
	for k := 2; k <= 9; k++ {
		for d := 1; d <= 4; d++ {
			tr := torus.New(k, d)
			specs := []Spec{
				Linear{}, Linear{C: 3}, Linear{C: -1, Coeffs: []int{2, 3}}, Linear{C: 1, Coeffs: []int{1, k, 2 * k}},
				Linear{Coeffs: []int{k, 2 * k}},
				MultipleLinear{T: 1}, MultipleLinear{Start: 2, T: 2}, MultipleLinear{T: k}, MultipleLinear{T: k + 1},
				MultipleLinear{T: 0}, MultipleLinear{T: 2, Coeffs: []int{3, 1, 1}},
				ShiftedDiagonal{Shift: 5},
				Full{},
				Random{}, Random{Count: tr.Nodes() / 3, Seed: 7}, Random{Count: tr.Nodes()}, Random{Count: -1},
				Random{Count: tr.Nodes() + 1},
				Explicit{Label: "fig1", Coords: [][]int{{0, 1}, {1, 0}, {k, 1}, {-1, 0}}},
				Explicit{Label: "cube", Coords: [][]int{{0, 0, 0}, {1, 1, 1}, {0, 0, 0}, {k + 1, 1, 1}}},
				Explicit{Label: "empty"},
				LayerCluster{}, LayerCluster{Dim: d - 1}, LayerCluster{Dim: d}, LayerCluster{Dim: -1},
			}
			for _, s := range specs {
				n, err := s.Size(tr)
				p, berr := s.Build(tr)
				switch {
				case (err == nil) != (berr == nil) || err != nil && err.Error() != berr.Error():
					t.Fatalf("%s on %s: Size error %v, Build error %v", s.Name(), tr, err, berr)
				case err == nil && n != p.Size():
					t.Fatalf("%s on %s: Size %d, Build placed %d", s.Name(), tr, n, p.Size())
				}
			}
		}
	}
}

// TestAppendNameMatchesName pins the one name formatter: for every spec
// kind, AppendName onto a non-empty buffer appends exactly Name, and Name
// is the text the fmt forms gave before the formatter replaced them
// (explicit coefficients printed as %v prints an []int).
func TestAppendNameMatchesName(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Linear{C: 3}, fmt.Sprintf("linear(c=%d)", 3)},
		{Linear{C: -8}, fmt.Sprintf("linear(c=%d)", -8)},
		{Linear{C: 2, Coeffs: []int{1, -3, 12}}, fmt.Sprintf("linear(c=%d,coeffs=%v)", 2, []int{1, -3, 12})},
		{Linear{C: 0, Coeffs: []int{}}, fmt.Sprintf("linear(c=%d,coeffs=%v)", 0, []int{})},
		{Linear{C: 1, Coeffs: []int{5}}, fmt.Sprintf("linear(c=%d,coeffs=%v)", 1, []int{5})},
		{MultipleLinear{T: 3, Start: 5}, fmt.Sprintf("multilinear(t=%d,start=%d)", 3, 5)},
		{MultipleLinear{T: 2, Start: -1, Coeffs: []int{1, 1}}, fmt.Sprintf("multilinear(t=%d,start=%d)", 2, -1)},
		{ShiftedDiagonal{Shift: 7}, fmt.Sprintf("shifted-diagonal(%d)", 7)},
		{Full{}, "full"},
		{Random{Count: 64, Seed: -9}, fmt.Sprintf("random(n=%d,seed=%d)", 64, -9)},
		{Random{Count: 1 << 20, Seed: 1 << 40}, fmt.Sprintf("random(n=%d,seed=%d)", 1<<20, int64(1)<<40)},
		{Explicit{Label: "fig1 <a&b>"}, "fig1 <a&b>"},
		{LayerCluster{Dim: 2}, fmt.Sprintf("layercluster(dim=%d)", 2)},
		{LayerCluster{Dim: -1}, fmt.Sprintf("layercluster(dim=%d)", -1)},
	} {
		if got := tc.spec.Name(); got != tc.want {
			t.Errorf("%#v: Name %q, want %q", tc.spec, got, tc.want)
		}
		if got := string(tc.spec.AppendName([]byte("x|"))); got != "x|"+tc.want {
			t.Errorf("%#v: AppendName onto %q gave %q, want %q", tc.spec, "x|", got, "x|"+tc.want)
		}
	}
	var buf [64]byte
	spec := Spec(Random{Count: 64, Seed: 3})
	if n := testing.AllocsPerRun(100, func() { spec.AppendName(buf[:0]) }); n != 0 {
		t.Errorf("AppendName into a buffer with room allocates %.0f times, want 0", n)
	}
}
