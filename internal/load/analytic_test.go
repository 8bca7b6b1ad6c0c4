package load

import (
	"math"
	"testing"

	"torusnet/internal/failpoint"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// TestAnalyticEMaxCellMap pins the theorem map cell by cell: which
// (algorithm, t, k parity) combinations answer, with which theorem, and
// whether exactOnly filters them.
func TestAnalyticEMaxCellMap(t *testing.T) {
	cases := []struct {
		name              string
		k, d, t           int
		alg               string
		exactOnly, wantOK bool
		wantExact         bool
		wantTheorem       string
		wantEMax          float64
	}{
		{"odr-t1-even", 8, 3, 1, "ODR", true, true, true, "theorem2", ODRLinearMax(8, 3)},
		{"odr-t1-odd", 5, 2, 1, "ODR", true, true, true, "theorem2", ODRLinearMax(5, 2)},
		{"odr-t2-exactonly", 8, 3, 2, "ODR", true, false, false, "", 0},
		{"odr-t2-force", 8, 3, 2, "ODR", false, true, false, "theorem3", MultiODRUpperBound(8, 3, 2)},
		{"odrmulti-t1-odd", 7, 2, 1, "ODR-multi", true, true, true, "theorem2", ODRLinearMax(7, 2)},
		{"odrmulti-t1-even-exactonly", 8, 2, 1, "ODR-multi", true, false, false, "", 0},
		{"odrmulti-t1-even-force", 8, 2, 1, "ODR-multi", false, true, false, "theorem3", MultiODRUpperBound(8, 2, 1)},
		{"odrmulti-t3-force", 6, 2, 3, "ODR-multi", false, true, false, "theorem3", MultiODRUpperBound(6, 2, 3)},
		{"udr-t1-exactonly", 6, 2, 1, "UDR", true, false, false, "", 0},
		{"udr-t1-force", 6, 2, 1, "UDR", false, true, false, "theorem4", UDRUpperBound(6, 2)},
		{"udr-t2-force", 6, 2, 2, "UDR", false, true, false, "theorem5", MultiUDRUpperBound(6, 2, 2)},
		{"udrmulti-t1-force", 5, 3, 1, "UDR-multi", false, true, false, "theorem4", UDRUpperBound(5, 3)},
		{"udrmulti-t4-force", 5, 3, 4, "UDR-multi", false, true, false, "theorem5", MultiUDRUpperBound(5, 3, 4)},
		{"unknown-alg", 5, 2, 1, "FAR", false, false, false, "", 0},
		{"d-too-small", 5, 1, 1, "ODR", false, false, false, "", 0},
		{"t-too-small", 5, 2, 0, "ODR", false, false, false, "", 0},
		{"k-too-small", 1, 2, 1, "ODR", false, false, false, "", 0},
	}
	for _, c := range cases {
		ev, ok := AnalyticEMax(c.k, c.d, c.t, c.alg, c.exactOnly)
		if ok != c.wantOK {
			t.Errorf("%s: ok = %v, want %v", c.name, ok, c.wantOK)
			continue
		}
		if !ok {
			continue
		}
		if ev.Exact != c.wantExact || ev.Theorem != c.wantTheorem || ev.EMax != c.wantEMax {
			t.Errorf("%s: got %+v, want exact=%v theorem=%q emax=%g",
				c.name, ev, c.wantExact, c.wantTheorem, c.wantEMax)
		}
	}
}

// TestAnalyticExactMatchesComputed is the paper oracle for Theorem 2: on
// every equality cell — single linear placements under ODR for all k, and
// under ODR-multi for odd k — the closed form equals the computed E_max
// with zero divergence, across parities, d ∈ {2,3}, and translates.
func TestAnalyticExactMatchesComputed(t *testing.T) {
	for _, dims := range []struct{ k, d int }{{4, 2}, {5, 2}, {6, 2}, {7, 2}, {4, 3}, {5, 3}, {6, 3}} {
		tr := torus.New(dims.k, dims.d)
		for _, c := range []int{0, dims.k - 1} {
			p := mustBuild(t, placement.Linear{C: c}, tr)
			algs := []routing.Algorithm{routing.ODR{}}
			if dims.k%2 == 1 {
				algs = append(algs, routing.ODRMulti{})
			}
			for _, alg := range algs {
				ev, ok := AnalyticEMax(dims.k, dims.d, 1, alg.Name(), true)
				if !ok || !ev.Exact || ev.Theorem != "theorem2" {
					t.Fatalf("T^%d_%d c=%d %s: ok=%v exact=%v theorem=%q",
						dims.d, dims.k, c, alg.Name(), ok, ev.Exact, ev.Theorem)
				}
				gen := Compute(p, alg, Options{FastPath: FastPathOff})
				if ev.EMax != gen.Max {
					t.Errorf("T^%d_%d c=%d %s: closed form %g, computed %g (diff %g)",
						dims.d, dims.k, c, alg.Name(), ev.EMax, gen.Max, ev.EMax-gen.Max)
				}
			}
		}
	}
}

// TestAnalyticBoundsDominateComputed checks the Theorem 3–5 cells: the
// closed form, with t read off the placement spec, is an upper bound
// (Exact == false) that dominates the computed E_max.
func TestAnalyticBoundsDominateComputed(t *testing.T) {
	tr := torus.New(6, 2)
	cases := []struct {
		spec    placement.Spec
		alg     routing.Algorithm
		theorem string
	}{
		{placement.MultipleLinear{T: 2}, routing.ODR{}, "theorem3"},
		{placement.Linear{C: 0}, routing.ODRMulti{}, "theorem3"}, // even k
		{placement.Linear{C: 0}, routing.UDR{}, "theorem4"},
		{placement.MultipleLinear{T: 3}, routing.UDRMulti{}, "theorem5"},
	}
	for _, c := range cases {
		classes, ok := placement.ResidueClasses(c.spec)
		if !ok {
			t.Fatalf("%s: no residue-class count", c.spec.Name())
		}
		ev, ok := AnalyticEMax(tr.K(), tr.D(), classes, c.alg.Name(), false)
		if !ok || ev.Exact || ev.Theorem != c.theorem {
			t.Fatalf("%s/%s: ok=%v exact=%v theorem=%q, want the %s bound",
				c.spec.Name(), c.alg.Name(), ok, ev.Exact, ev.Theorem, c.theorem)
		}
		gen := Compute(mustBuild(t, c.spec, tr), c.alg, Options{FastPath: FastPathOff})
		if gen.Max > ev.EMax+1e-9 {
			t.Errorf("%s/%s: %s bound %g below computed E_max %g",
				c.spec.Name(), c.alg.Name(), c.theorem, ev.EMax, gen.Max)
		}
	}
}

// TestAnalyticDispatchFailpoint checks the soft failpoint: an armed fault
// makes AnalyticAnswer decline a perfect Theorem 2 cell, so the lane hands
// the request to the computed path instead of failing it, and disarming
// restores the answer.
func TestAnalyticDispatchFailpoint(t *testing.T) {
	if err := failpoint.Enable("load.analytic.dispatch", "error"); err != nil {
		t.Fatal(err)
	}
	_, ok := AnalyticAnswer(5, 2, 1, "ODR", true)
	failpoint.Disable("load.analytic.dispatch")
	if ok {
		t.Fatal("armed dispatch failpoint still answered")
	}
	if ev, ok := AnalyticAnswer(5, 2, 1, "ODR", true); !ok || ev.EMax != ODRLinearMax(5, 2) {
		t.Errorf("disarmed answer: %+v, %v", ev, ok)
	}
}

// TestAnalyticAnswerServiceEntry drives the service lane's entry point.
func TestAnalyticAnswerServiceEntry(t *testing.T) {
	ev, ok := AnalyticAnswer(5, 2, 1, "ODR", true)
	if !ok || !ev.Exact || ev.EMax != ODRLinearMax(5, 2) {
		t.Fatalf("AnalyticAnswer = %+v, %v", ev, ok)
	}
	if _, ok := AnalyticAnswer(6, 2, 1, "ODR-multi", true); ok {
		t.Error("even-k ODR-multi is not an exact cell")
	}
}

// TestODRLinearInteriorMaxSmallD is the regression test for the odd-k
// underflow: d < 3 has no interior dimension, and the old code silently
// evaluated fractional powers of k instead of erroring.
func TestODRLinearInteriorMaxSmallD(t *testing.T) {
	for _, d := range []int{0, 1, 2} {
		if v, err := ODRLinearInteriorMax(7, d); err == nil {
			t.Errorf("d=%d: got %g, want an error", d, v)
		}
	}
	if v, err := ODRLinearInteriorMax(7, 3); err != nil || v != 6 {
		t.Errorf("d=3: got %g, %v; want (49-1)/8 = 6", v, err)
	}
	// The d=2 failure mode was a fractional power: k/8 − 1/(8k), never an
	// integer edge count. Guard against it ever coming back.
	if v, err := ODRLinearInteriorMax(8, 2); err == nil && v != math.Trunc(v) {
		t.Errorf("d=2 returned the fractional artifact %g instead of an error", v)
	}
}
