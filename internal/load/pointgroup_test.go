package load

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// signedPerm is a point symmetry of T^d_k that fixes the origin: it sends
// coordinate vector x to y with y_j = sign_j · x_perm[j] (mod k).
type signedPerm struct {
	perm []int
	neg  []bool
}

// pointGroup returns the 2^d·d! signed coordinate permutations of d
// dimensions, the identity first.
func pointGroup(d int) []signedPerm {
	var perms [][]int
	var grow func(prefix []int, used int)
	grow = func(prefix []int, used int) {
		if len(prefix) == d {
			perms = append(perms, append([]int(nil), prefix...))
			return
		}
		for j := 0; j < d; j++ {
			if used&(1<<j) == 0 {
				grow(append(prefix, j), used|1<<j)
			}
		}
	}
	grow(nil, 0)
	var out []signedPerm
	for _, perm := range perms {
		for mask := 0; mask < 1<<d; mask++ {
			neg := make([]bool, d)
			for j := range neg {
				neg[j] = mask&(1<<j) != 0
			}
			out = append(out, signedPerm{perm: perm, neg: neg})
		}
	}
	return out
}

// isIdentity, isReversal and allSigns classify a map's permutation and
// signs.
func (g signedPerm) isIdentity() bool {
	for j, p := range g.perm {
		if p != j {
			return false
		}
	}
	return true
}

func (g signedPerm) isReversal() bool {
	for j, p := range g.perm {
		if p != len(g.perm)-1-j {
			return false
		}
	}
	return true
}

func (g signedPerm) allSigns(neg bool) bool {
	for _, n := range g.neg {
		if n != neg {
			return false
		}
	}
	return true
}

// image returns g(P).
func (g signedPerm) image(p *placement.Placement) *placement.Placement {
	t := p.Torus()
	x, y := make([]int, t.D()), make([]int, t.D())
	nodes := make([]torus.Node, 0, p.Size())
	for _, u := range p.Nodes() {
		t.CoordsInto(u, x)
		for j, src := range g.perm {
			y[j] = x[src]
			if g.neg[j] {
				y[j] = -y[j]
			}
		}
		nodes = append(nodes, t.NodeAt(y))
	}
	return placement.New(t, nodes, "image")
}

// TestPointSymmetriesPreservingEMax pins, per torus and routing, which
// signed coordinate permutations leave E_max of every placement unchanged
// under the generic engine. A kept map must preserve E_max on every sampled
// random placement; a dropped one must change it on at least one. Odd k
// has no antipodal ties, so every map is kept at k = 5; ODR breaks its
// ties and orders its dimensions, so on even k it keeps only the identity
// and x → −reverse(x), and on T³₃ only the maps that keep or reverse the
// dimension order. ODROrder and MeshODR are not translation-and-point
// symmetric by construction and are left out.
func TestPointSymmetriesPreservingEMax(t *testing.T) {
	full := func(signedPerm) bool { return true }
	order := func(g signedPerm) bool { return g.isIdentity() || g.isReversal() }
	negReverse := func(g signedPerm) bool {
		return g.isIdentity() && g.allSigns(false) || g.isReversal() && g.allSigns(true)
	}
	odr, odrMulti, udr, udrMulti, far := routing.ODR{}, routing.ODRMulti{}, routing.UDR{}, routing.UDRMulti{}, routing.FAR{}
	type cell struct {
		alg  routing.Algorithm
		kept func(signedPerm) bool
	}
	for _, tc := range []struct {
		k, d    int
		samples int
		cells   []cell
	}{
		{5, 2, 60, []cell{{odr, full}, {odrMulti, full}, {udr, full}, {udrMulti, full}, {far, full}}},
		{6, 2, 60, []cell{{odr, negReverse}, {odrMulti, full}, {udr, full}, {udrMulti, full}, {far, full}}},
		{8, 2, 60, []cell{{odr, negReverse}, {odrMulti, full}, {udr, full}, {udrMulti, full}, {far, full}}},
		{3, 3, 60, []cell{{odr, order}, {odrMulti, order}, {udr, full}, {udrMulti, full}, {far, full}}},
		{4, 3, 60, []cell{{odr, negReverse}, {odrMulti, order}, {udr, full}, {udrMulti, full}, {far, full}}},
	} {
		tr := torus.New(tc.k, tc.d)
		rng := rand.New(rand.NewSource(int64(100*tc.k + tc.d)))
		group := pointGroup(tc.d)
		placements := make([]*placement.Placement, tc.samples)
		for i := range placements {
			count := 3 + rng.Intn(tr.Nodes()/2)
			p, err := placement.Random{Count: count, Seed: rng.Int63()}.Build(tr)
			if err != nil {
				t.Fatal(err)
			}
			placements[i] = p
		}
		opts := Options{Workers: 1, FastPath: FastPathOff}
		for _, c := range tc.cells {
			base := make([]float64, len(placements))
			for i, p := range placements {
				base[i] = EMaxCtx(context.Background(), p, c.alg, opts).Max
			}
			kept := 0
			for _, g := range group {
				changed := false
				for i, p := range placements {
					a := base[i]
					b := EMaxCtx(context.Background(), g.image(p), c.alg, opts).Max
					if math.Abs(a-b) > 1e-9*math.Max(1, a) {
						changed = true
						break
					}
				}
				if changed == c.kept(g) {
					t.Errorf("%s on %s: map perm %v neg %v changes E_max = %v, want %v", c.alg.Name(), tr, g.perm, g.neg, changed, !c.kept(g))
				}
				if !changed {
					kept++
				}
			}
			t.Logf("%s on %s keeps %d of %d point symmetries", c.alg.Name(), tr, kept, len(group))
		}
	}
}
