package placement

import (
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
