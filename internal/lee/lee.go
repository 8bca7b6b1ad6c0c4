// Package lee provides closed-form Lee-distance analytics on Z_k^d (Bose et
// al., "Lee Distance and Topological Properties of k-ary n-cubes", the
// paper's reference [6]): ring and torus distance distributions, mean
// distances, diameter, and Lee-sphere sizes. The closed forms predict the
// aggregate quantities the load engine measures (e.g. Σ_pairs Lee(p,q) for
// full and linear placements), giving the test suite analytic anchors that
// do not depend on any routing code.
package lee

// RingDistanceSum returns Σ_{j∈Z_k} cyclicDistance(0, j): the total Lee
// distance from a fixed residue to all residues of Z_k. It equals k²/4 for
// even k and (k²−1)/4 for odd k.
func RingDistanceSum(k int) int {
	if k%2 == 0 {
		return k * k / 4
	}
	return (k*k - 1) / 4
}

// RingMeanDistance is RingDistanceSum / k.
func RingMeanDistance(k int) float64 {
	return float64(RingDistanceSum(k)) / float64(k)
}

// Diameter returns the Lee diameter of T^d_k: d·⌊k/2⌋.
func Diameter(k, d int) int {
	return d * (k / 2)
}

// FullExchangeTotal returns Σ_{p≠q} Lee(p,q) over all ordered node pairs of
// the fully populated torus: n·(n−1)·mean adjusted — computed exactly as
// n² · d · ringSum/k − 0 (self pairs contribute zero distance, so they can
// be included for free): k^d · k^{d−1} · d · RingDistanceSum(k) / ... more
// directly: for each ordered pair, each coordinate contributes
// independently, so the total is d · k^{2(d−1)} · k · RingDistanceSum(k).
func FullExchangeTotal(k, d int) float64 {
	// Per coordinate: Σ_{a,b ∈ Z_k} dist(a,b) = k · RingDistanceSum(k).
	// The other d−1 coordinates of both endpoints are free: k^{2(d−1)}.
	perCoord := float64(k) * float64(RingDistanceSum(k))
	free := 1.0
	for i := 0; i < 2*(d-1); i++ {
		free *= float64(k)
	}
	return float64(d) * perCoord * free
}

// SphereSize returns |{x ∈ Z_k^d : Lee(0, x) = r}| — the surface of the Lee
// sphere of radius r — computed by dynamic programming over dimensions.
// SphereSize(k, d, 0) = 1 and Σ_r SphereSize = k^d.
func SphereSize(k, d, r int) int {
	// ways[s] = number of residues at cyclic distance s from 0 in Z_k.
	half := k / 2
	ways := make([]int, half+1)
	ways[0] = 1
	for s := 1; s <= half; s++ {
		if k%2 == 0 && s == half {
			ways[s] = 1
		} else {
			ways[s] = 2
		}
	}
	// DP over dimensions.
	cur := make([]int, Diameter(k, d)+1)
	cur[0] = 1
	for dim := 0; dim < d; dim++ {
		next := make([]int, len(cur))
		for have, cnt := range cur {
			if cnt == 0 {
				continue
			}
			for s := 0; s <= half; s++ {
				if have+s < len(next) {
					next[have+s] += cnt * ways[s]
				}
			}
		}
		cur = next
	}
	if r < 0 || r >= len(cur) {
		return 0
	}
	return cur[r]
}

// BallSize returns |{x : Lee(0, x) ≤ r}|.
func BallSize(k, d, r int) int {
	total := 0
	for s := 0; s <= r; s++ {
		total += SphereSize(k, d, s)
	}
	return total
}

// LinearExchangeTotal returns Σ_{p≠q∈P} Lee(p,q) for the linear placement
// P = {p : Σp_i ≡ c (mod k)} on T^d_k, computed exactly by convolving the
// joint distribution of (Lee distance, residue difference) across
// dimensions. It anchors load.ExpectedTotal for linear placements without
// enumerating pairs.
func LinearExchangeTotal(k, d int) float64 {
	// For one coordinate, count pairs (a, b) ∈ Z_k² by (distance, b−a mod k).
	// Then convolve d times tracking (total distance, total residue diff),
	// and keep pairs with total residue diff ≡ 0. Each solution set of the
	// linear constraint appears k times over (p anchored anywhere), handled
	// by dividing at the end: pairs of P correspond to difference vectors
	// with Σδ ≡ 0, each realized |P| = k^{d−1} times.
	// dist[s][δ]: number of δ ∈ Z_k with cyclicDistance(0, δ) = s is implied;
	// we only need, per dimension, the pair (distance contributed, δ).
	type cell struct{ count float64 }
	// table[t][δ] after processing some dimensions: number of difference
	// vectors with total distance t and residue sum δ.
	maxT := Diameter(k, d)
	table := make([][]cell, maxT+1)
	for i := range table {
		table[i] = make([]cell, k)
	}
	table[0][0].count = 1
	for dim := 0; dim < d; dim++ {
		next := make([][]cell, maxT+1)
		for i := range next {
			next[i] = make([]cell, k)
		}
		for t := 0; t <= maxT; t++ {
			for delta := 0; delta < k; delta++ {
				c := table[t][delta].count
				if c == 0 {
					continue
				}
				for step := 0; step < k; step++ {
					s := cyclicDistance(step, k)
					if t+s > maxT {
						continue
					}
					next[t+s][(delta+step)%k].count += c
				}
			}
		}
		table = next
	}
	// Difference vectors with Σδ ≡ 0: each occurs for k^{d−1} anchor points p.
	total := 0.0
	for t := 0; t <= maxT; t++ {
		total += float64(t) * table[t][0].count
	}
	anchors := 1.0
	for i := 0; i < d-1; i++ {
		anchors *= float64(k)
	}
	return total * anchors
}

func cyclicDistance(delta, k int) int {
	if other := k - delta; other < delta {
		return other
	}
	return delta
}
