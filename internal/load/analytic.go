package load

import (
	"fmt"
	"math"
)

// ODRLinearInteriorMax returns the closed-form expression of §6.1 for the
// maximum load of a linear placement of size k^{d-1} under restricted ODR:
//
//	k^{d-1}/8 + k^{d-2}/4          (k even)
//	k^{d-1}/8 − k^{d-3}/8          (k odd)
//
// The paper presents this as E_max, but its busiest-edge census multiplies
// the ring-pair count by k^{s−2}·k^{d−s−1} residue solutions, which
// presumes an *interior* correction dimension 2 ≤ s ≤ d−1 — so the
// expression only exists for d ≥ 3, and the function errors below that
// rather than silently evaluating the odd-k k^{d−3} term at a fractional
// power (d = 2 used to yield k/8 − 1/(8k), which is no census of anything).
// Measurement (experiment E6) confirms the expression exactly — for edges
// of interior dimensions. The global maximum is attained on the first/last
// dimension instead, where ODR funnels (see ODRLinearMax); both are
// Θ(k^{d-1}), so Theorem 2's linearity claim is unaffected.
func ODRLinearInteriorMax(k, d int) (float64, error) {
	if d < 3 {
		return 0, fmt.Errorf("load: ODRLinearInteriorMax needs an interior dimension (d >= 3), got d=%d", d)
	}
	if k%2 == 0 {
		return math.Pow(float64(k), float64(d-1))/8 + math.Pow(float64(k), float64(d-2))/4, nil
	}
	return math.Pow(float64(k), float64(d-1))/8 - math.Pow(float64(k), float64(d-3))/8, nil
}

// ODRLinearMax returns the measured-and-derived global maximum load of a
// linear placement of size k^{d-1} under restricted ODR:
//
//	k^{d-1}/2                      (k even)
//	(k^{d-1} − k^{d-2})/2          (k odd)
//
// The maximum sits on last-dimension edges: every destination q receives
// its |P|−1 messages through only the two dim-d in-arcs ODR allows, so the
// busier arc carries ⌈k/2⌉·k^{d-2}-ish load. (Symmetrically, first-
// dimension out-edges of each source are equally hot.) This is a factor ~4
// above the paper's §6.1 expression but still linear in |P| = k^{d-1}, so
// Theorem 2 stands with constant 1/2 instead of 1/8. Any routing with a
// fixed final correction dimension in fact obeys E_max ≥ (|P|−k^{d-2})/2
// here: the |P|−k^{d-2} sources differing from a destination in that
// dimension all arrive over its 2 final-dimension in-edges.
func ODRLinearMax(k, d int) float64 {
	if k%2 == 0 {
		return math.Pow(float64(k), float64(d-1)) / 2
	}
	return (math.Pow(float64(k), float64(d-1)) - math.Pow(float64(k), float64(d-2))) / 2
}

// ODRRingPairChoices returns the number of admissible (p_s, q_s) choices on
// a single ring for the busiest edge under restricted ODR (§6.1):
// (k/2)(k/2+1)/2 for even k, ((k−1)/2)((k−1)/2+1)/2 for odd k.
func ODRRingPairChoices(k int) int {
	if k%2 == 0 {
		h := k / 2
		return h * (h + 1) / 2
	}
	h := (k - 1) / 2
	return h * (h + 1) / 2
}

// FullTorusLowerBound returns the §1 bisection-counting lower bound on the
// maximum load of the fully populated k-even d-dimensional torus:
// E_max > k^{d+1}/8. It is superlinear in the processor count k^d — the
// scaling failure that motivates partially populated tori.
func FullTorusLowerBound(k, d int) float64 {
	return math.Pow(float64(k), float64(d+1)) / 8
}

// MultiODRUpperBound returns the Theorem 3 bound t²·k^{d-1} on the maximum
// load of a multiple linear placement of size t·k^{d-1} under ODR.
func MultiODRUpperBound(k, d, t int) float64 {
	return float64(t*t) * math.Pow(float64(k), float64(d-1))
}

// UDRUpperBound returns the Theorem 4 bound 2^{d-1}·k^{d-1} on the maximum
// load of a linear placement under UDR.
func UDRUpperBound(k, d int) float64 {
	return math.Pow(2, float64(d-1)) * math.Pow(float64(k), float64(d-1))
}

// MultiUDRUpperBound returns the Theorem 5 bound t²·2^{d-1}·k^{d-1} for
// multiple linear placements under UDR.
func MultiUDRUpperBound(k, d, t int) float64 {
	return float64(t*t) * UDRUpperBound(k, d)
}

// AnalyticEval is one closed-form answer from the Theorem 2–5 family.
type AnalyticEval struct {
	// EMax is the closed-form value: E_max itself when Exact, an upper
	// bound on it otherwise.
	EMax float64
	// Exact distinguishes the Theorem 2 equality cells from the
	// Theorem 3–5 bound cells.
	Exact bool
	// Theorem names the paper result the value comes from
	// ("theorem2" … "theorem5").
	Theorem string
}

// AnalyticEMax maps a placement shape — t consecutive residue classes on
// T^d_k — and a routing algorithm name (routing.Algorithm.Name spelling)
// to the paper's closed forms:
//
//	t == 1, ODR                    E_max = ODRLinearMax(k, d)    (Theorem 2, exact)
//	t == 1, ODR-multi, k odd       E_max = ODRLinearMax(k, d)    (Theorem 2, exact: odd
//	                               rings have unique shortest paths, so ODR-multi ≡ ODR)
//	ODR / ODR-multi otherwise      E_max ≤ MultiODRUpperBound    (Theorem 3)
//	UDR / UDR-multi, t == 1        E_max ≤ UDRUpperBound         (Theorem 4)
//	UDR / UDR-multi, t > 1         E_max ≤ MultiUDRUpperBound    (Theorem 5)
//
// exactOnly restricts the map to the equality cells. The second return is
// false when no theorem applies (d < 2, t < 1, or an unknown algorithm);
// d ≥ 2 is required because the theorems' edge census needs at least two
// dimensions (see also the ODRLinearInteriorMax small-d guard).
func AnalyticEMax(k, d, t int, algName string, exactOnly bool) (AnalyticEval, bool) {
	if d < 2 || t < 1 || k < 2 {
		return AnalyticEval{}, false
	}
	switch algName {
	case "ODR":
		if t == 1 {
			return AnalyticEval{EMax: ODRLinearMax(k, d), Exact: true, Theorem: "theorem2"}, true
		}
	case "ODR-multi":
		if t == 1 && k%2 == 1 {
			return AnalyticEval{EMax: ODRLinearMax(k, d), Exact: true, Theorem: "theorem2"}, true
		}
	case "UDR", "UDR-multi":
		if exactOnly {
			return AnalyticEval{}, false
		}
		if t == 1 {
			return AnalyticEval{EMax: UDRUpperBound(k, d), Exact: false, Theorem: "theorem4"}, true
		}
		return AnalyticEval{EMax: MultiUDRUpperBound(k, d, t), Exact: false, Theorem: "theorem5"}, true
	default:
		return AnalyticEval{}, false
	}
	if exactOnly {
		return AnalyticEval{}, false
	}
	return AnalyticEval{EMax: MultiODRUpperBound(k, d, t), Exact: false, Theorem: "theorem3"}, true
}

// AnalyticAnswer fires the load.analytic.dispatch failpoint and then
// consults the theorem map. It is the torusd fast lane's entry: there the
// canonical placement spec proves the shape (t residue classes, see
// placement.ResidueClasses), so no placement is built. An injected fault
// answers not-applicable, sending the request down the computed path.
func AnalyticAnswer(k, d, t int, algName string, exactOnly bool) (AnalyticEval, bool) {
	if err := fpAnalyticDispatch.Inject(); err != nil {
		return AnalyticEval{}, false
	}
	return AnalyticEMax(k, d, t, algName, exactOnly)
}
