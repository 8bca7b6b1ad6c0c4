package load

import (
	"math"
	"strings"
	"testing"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

func build(t *testing.T, spec placement.Spec, tr *torus.Torus) *placement.Placement {
	t.Helper()
	p, err := spec.Build(tr)
	if err != nil {
		t.Fatalf("build %s: %v", spec.Name(), err)
	}
	return p
}

var algs = []routing.Algorithm{routing.ODR{}, routing.ODRMulti{}, routing.UDR{}, routing.UDRMulti{}, routing.FAR{}}

func TestLoadConservation(t *testing.T) {
	// Σ_l E(l) must equal Σ_{p≠q} Lee(p,q) for every algorithm: each
	// message occupies exactly Lee(p,q) edges in expectation.
	cases := []struct {
		k, d int
		spec placement.Spec
	}{
		{4, 2, placement.Linear{C: 0}},
		{5, 2, placement.Linear{C: 1}},
		{6, 2, placement.MultipleLinear{T: 2}},
		{4, 3, placement.Linear{C: 0}},
		{5, 3, placement.Linear{C: 2}},
		{3, 2, placement.Full{}},
		{4, 2, placement.Random{Count: 7, Seed: 3}},
	}
	for _, c := range cases {
		tr := torus.New(c.k, c.d)
		p := build(t, c.spec, tr)
		want := ExpectedTotal(p)
		for _, alg := range algs {
			res := Compute(p, alg, Options{})
			if math.Abs(res.Total-want) > 1e-6*math.Max(1, want) {
				t.Errorf("%s / %s on %s: Total=%v, want %v", c.spec.Name(), alg.Name(), tr, res.Total, want)
			}
		}
	}
}

func TestComputeDeterministicAcrossWorkerCounts(t *testing.T) {
	tr := torus.New(5, 3)
	p := build(t, placement.Linear{C: 0}, tr)
	base := Compute(p, routing.UDR{}, Options{Workers: 1})
	for _, w := range []int{2, 3, 8} {
		res := Compute(p, routing.UDR{}, Options{Workers: w})
		for e := range base.Loads {
			if math.Abs(res.Loads[e]-base.Loads[e]) > 1e-9 {
				t.Fatalf("workers=%d: edge %d load %v vs %v", w, e, res.Loads[e], base.Loads[e])
			}
		}
	}
}

func TestODRLoadsAreIntegers(t *testing.T) {
	tr := torus.New(6, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	res := Compute(p, routing.ODR{}, Options{})
	for e, v := range res.Loads {
		if math.Abs(v-math.Round(v)) > 1e-9 {
			t.Fatalf("ODR load on edge %d is %v, not an integer", e, v)
		}
	}
	exact, err := ComputeExact(p, routing.ODR{})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.AllIntegral() {
		t.Error("exact ODR loads should be integral")
	}
}

func TestExactMatchesFloat(t *testing.T) {
	tr := torus.New(4, 3)
	p := build(t, placement.Linear{C: 0}, tr)
	for _, alg := range algs {
		res := Compute(p, alg, Options{})
		exact, err := ComputeExact(p, alg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for e := range res.Loads {
			ef, _ := exact.Loads[e].Float64()
			if math.Abs(res.Loads[e]-ef) > 1e-6 {
				t.Fatalf("%s: edge %d float %v vs exact %v", alg.Name(), e, res.Loads[e], ef)
			}
		}
		if math.Abs(res.Max-exact.MaxFloat()) > 1e-6 {
			t.Fatalf("%s: max %v vs exact %v", alg.Name(), res.Max, exact.MaxFloat())
		}
	}
}

func TestODRGlobalMaxFormula(t *testing.T) {
	// Measured global E_max for linear + restricted ODR follows the
	// funneling closed form k^{d-1}/2 (even) / (k^{d-1}−k^{d-2})/2 (odd),
	// attained on first/last-dimension edges.
	cases := []struct{ k, d int }{
		{4, 2}, {6, 2}, {5, 2},
		{4, 3}, {6, 3}, {8, 3}, {5, 3}, {7, 3}, {9, 3},
		{4, 4}, {6, 4}, {5, 4}, {3, 5},
	}
	for _, c := range cases {
		tr := torus.New(c.k, c.d)
		p := build(t, placement.Linear{C: 0}, tr)
		res := Compute(p, routing.ODR{}, Options{})
		want := ODRLinearMax(c.k, c.d)
		if math.Abs(res.Max-want) > 1e-6 {
			t.Errorf("T^%d_%d: measured E_max=%v, funneling formula=%v", c.d, c.k, res.Max, want)
		}
	}
}

func TestPaperFormulaHoldsOnInteriorDimensions(t *testing.T) {
	// §6.1's expression k^{d-1}/8 + k^{d-2}/4 (k even) resp.
	// k^{d-1}/8 − k^{d-3}/8 (k odd) is exactly the maximum load over edges
	// of *interior* correction dimensions 2..d−1, which is where the
	// paper's census applies. This is the E6 paper-vs-measured row.
	cases := []struct{ k, d int }{
		{4, 3}, {6, 3}, {8, 3}, {5, 3}, {7, 3}, {9, 3},
		{4, 4}, {6, 4}, {5, 4}, {3, 5},
	}
	for _, c := range cases {
		tr := torus.New(c.k, c.d)
		p := build(t, placement.Linear{C: 0}, tr)
		res := Compute(p, routing.ODR{}, Options{})
		perDim := res.PerDimensionMax()
		interior := 0.0
		for j := 1; j <= c.d-2; j++ {
			interior = math.Max(interior, perDim[j])
		}
		want, err := ODRLinearInteriorMax(c.k, c.d)
		if err != nil {
			t.Fatalf("T^%d_%d: %v", c.d, c.k, err)
		}
		if math.Abs(interior-want) > 1e-6 {
			t.Errorf("T^%d_%d: interior-dim max=%v, §6.1 formula=%v (per-dim %v)",
				c.d, c.k, interior, want, perDim)
		}
	}
}

func TestTheorem2LinearInPlacementSize(t *testing.T) {
	// Theorem 2's substance: E_max / |P| stays bounded by a constant as k
	// grows (measured constant is 1/2 from funneling, not the paper's 1/8).
	for _, k := range []int{4, 6, 8, 10, 12} {
		tr := torus.New(k, 3)
		p := build(t, placement.Linear{C: 0}, tr)
		res := Compute(p, routing.ODR{}, Options{})
		ratio := res.Max / float64(p.Size())
		if ratio > 0.5+1e-9 {
			t.Errorf("k=%d: E_max/|P| = %v, exceeds the funneling constant 1/2", k, ratio)
		}
	}
}

func TestSinglePathFunnelingLowerBound(t *testing.T) {
	// Under any routing with a fixed final correction dimension, every
	// source that differs from a destination q in that dimension delivers
	// through one of q's 2 final-dimension in-edges. A linear placement has
	// |P| − k^{d-2} such sources per destination, so E_max ≥ (|P|−k^{d-2})/2.
	for _, c := range []struct{ k, d int }{{4, 2}, {5, 3}, {4, 3}, {6, 3}} {
		tr := torus.New(c.k, c.d)
		p := build(t, placement.Linear{C: 0}, tr)
		res := Compute(p, routing.ODR{}, Options{})
		floor := (float64(p.Size()) - math.Pow(float64(c.k), float64(c.d-2))) / 2
		if res.Max < floor-1e-9 {
			t.Errorf("T^%d_%d: E_max=%v below the funneling floor %v", c.d, c.k, res.Max, floor)
		}
	}
}

func TestTheorem3MultiLinearODRBound(t *testing.T) {
	for _, tt := range []int{1, 2, 3} {
		for _, k := range []int{4, 5, 6} {
			tr := torus.New(k, 3)
			p := build(t, placement.MultipleLinear{T: tt}, tr)
			res := Compute(p, routing.ODR{}, Options{})
			if bound := MultiODRUpperBound(k, 3, tt); res.Max > bound {
				t.Errorf("k=%d t=%d: E_max=%v exceeds Theorem 3 bound %v", k, tt, res.Max, bound)
			}
		}
	}
}

func TestTheorem4UDRBound(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 2}, {6, 2}, {4, 3}, {5, 3}, {6, 3}, {4, 4}} {
		tr := torus.New(c.k, c.d)
		p := build(t, placement.Linear{C: 0}, tr)
		res := Compute(p, routing.UDR{}, Options{})
		if bound := UDRUpperBound(c.k, c.d); res.Max >= bound {
			t.Errorf("T^%d_%d: UDR E_max=%v not below Theorem 4 bound %v", c.d, c.k, res.Max, bound)
		}
	}
}

func TestTheorem5MultiUDRBound(t *testing.T) {
	for _, tt := range []int{2, 3} {
		tr := torus.New(5, 3)
		p := build(t, placement.MultipleLinear{T: tt}, tr)
		res := Compute(p, routing.UDR{}, Options{})
		if bound := MultiUDRUpperBound(5, 3, tt); res.Max >= bound {
			t.Errorf("t=%d: UDR E_max=%v not below Theorem 5 bound %v", tt, res.Max, bound)
		}
	}
}

func TestFullTorusSuperlinear(t *testing.T) {
	// §1: the fully populated torus has an edge with load > k^{d+1}/8
	// (k even). ODR is classical dimension-ordered routing here.
	for _, c := range []struct{ k, d int }{{4, 2}, {6, 2}, {4, 3}} {
		tr := torus.New(c.k, c.d)
		p := build(t, placement.Full{}, tr)
		res := Compute(p, routing.ODR{}, Options{})
		if bound := FullTorusLowerBound(c.k, c.d); res.Max <= bound {
			t.Errorf("T^%d_%d full: E_max=%v, want > %v", c.d, c.k, res.Max, bound)
		}
	}
}

func TestUDRSpreadsLoad(t *testing.T) {
	// UDR's E_max should never exceed ODR's on the same linear placement
	// (more paths can only smooth the expectation), and should be strictly
	// smaller somewhere for d >= 2 tori of odd k.
	tr := torus.New(5, 3)
	p := build(t, placement.Linear{C: 0}, tr)
	odr := Compute(p, routing.ODR{}, Options{})
	udr := Compute(p, routing.UDR{}, Options{})
	if udr.Max > odr.Max+1e-9 {
		t.Errorf("UDR E_max %v exceeds ODR E_max %v", udr.Max, odr.Max)
	}
}

func TestMonteCarloConvergesToExpectation(t *testing.T) {
	tr := torus.New(4, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	exact := Compute(p, routing.UDR{}, Options{})
	mc := MonteCarlo(p, routing.UDR{}, 4000, 7, Options{})
	for e := range exact.Loads {
		if math.Abs(mc.MeanLoads[e]-exact.Loads[e]) > 0.15 {
			t.Fatalf("edge %d: Monte-Carlo %v vs exact %v", e, mc.MeanLoads[e], exact.Loads[e])
		}
	}
	if mc.MaxPeak < exact.Max {
		t.Errorf("peak %v below expected max %v (peak must dominate mean)", mc.MaxPeak, exact.Max)
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	tr := torus.New(4, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	a := MonteCarlo(p, routing.UDR{}, 50, 42, Options{Workers: 1})
	b := MonteCarlo(p, routing.UDR{}, 50, 42, Options{Workers: 4})
	for e := range a.MeanLoads {
		if a.MeanLoads[e] != b.MeanLoads[e] {
			t.Fatalf("edge %d: %v vs %v across worker counts", e, a.MeanLoads[e], b.MeanLoads[e])
		}
	}
}

// TestMonteCarloPanicsOnNoRounds checks that a sample of no rounds is
// refused rather than answered with 0/0 = NaN mean loads.
func TestMonteCarloPanicsOnNoRounds(t *testing.T) {
	tr := torus.New(4, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	for _, rounds := range []int{0, -3} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "load:") {
					t.Errorf("rounds %d: recovered %q, want a load: panic", rounds, msg)
				}
			}()
			MonteCarlo(p, routing.UDR{}, rounds, 1, Options{})
		}()
	}
}

func TestMonteCarloODRIsExact(t *testing.T) {
	// ODR has one path, so a single Monte-Carlo round reproduces the exact
	// loads with zero variance.
	tr := torus.New(5, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	exact := Compute(p, routing.ODR{}, Options{})
	mc := MonteCarlo(p, routing.ODR{}, 1, 9, Options{})
	for e := range exact.Loads {
		if mc.MeanLoads[e] != exact.Loads[e] {
			t.Fatalf("edge %d: %v vs %v", e, mc.MeanLoads[e], exact.Loads[e])
		}
	}
}

func TestResultHelpers(t *testing.T) {
	tr := torus.New(4, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	res := Compute(p, routing.ODR{}, Options{})
	if res.Mean() <= 0 || res.Mean() > res.Max {
		t.Errorf("Mean() = %v out of range (max %v)", res.Mean(), res.Max)
	}
	if res.MeanNonzero() < res.Mean() {
		t.Errorf("MeanNonzero %v < Mean %v", res.MeanNonzero(), res.Mean())
	}
	if nz := res.NonzeroEdges(); nz <= 0 || nz > len(res.Loads) {
		t.Errorf("NonzeroEdges = %d", nz)
	}
	dims := res.PerDimensionMax()
	if len(dims) != 2 {
		t.Fatalf("PerDimensionMax arity %d", len(dims))
	}
	overall := math.Max(dims[0], dims[1])
	if math.Abs(overall-res.Max) > 1e-9 {
		t.Errorf("per-dimension max %v does not attain overall %v", overall, res.Max)
	}
	if res.String() == "" {
		t.Error("String() empty")
	}
}

func TestTranslationInvarianceOfLoads(t *testing.T) {
	// Translating by a zero-sum offset is an automorphism fixing a linear
	// placement, so the load function must be invariant under it.
	tr := torus.New(5, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	offset := []int{1, 4} // 1+4 = 5 ≡ 0
	if !p.StabilizedBy(offset) {
		t.Fatal("offset should stabilize the placement")
	}
	for _, alg := range []routing.Algorithm{routing.ODR{}, routing.UDR{}} {
		res := Compute(p, alg, Options{})
		tr.ForEachEdge(func(e torus.Edge) {
			te := tr.TranslateEdge(e, offset)
			if math.Abs(res.Loads[e]-res.Loads[te]) > 1e-9 {
				t.Fatalf("%s: load not translation invariant: %v vs %v on %s / %s",
					alg.Name(), res.Loads[e], res.Loads[te], tr.EdgeString(e), tr.EdgeString(te))
			}
		})
	}
}

func TestAnalyticHelpers(t *testing.T) {
	if got, err := ODRLinearInteriorMax(8, 3); err != nil || got != 8+2 {
		t.Errorf("ODRLinearInteriorMax(8,3) = %v, %v, want 10", got, err)
	}
	if got, err := ODRLinearInteriorMax(5, 3); err != nil || got != 3 {
		t.Errorf("ODRLinearInteriorMax(5,3) = %v, %v, want 3", got, err)
	}
	if got := ODRLinearMax(8, 3); got != 32 {
		t.Errorf("ODRLinearMax(8,3) = %v, want 32", got)
	}
	if got := ODRLinearMax(5, 3); got != 10 {
		t.Errorf("ODRLinearMax(5,3) = %v, want 10", got)
	}
	if got := ODRRingPairChoices(8); got != 10 {
		t.Errorf("ODRRingPairChoices(8) = %v, want 10", got)
	}
	if got := ODRRingPairChoices(5); got != 3 {
		t.Errorf("ODRRingPairChoices(5) = %v, want 3", got)
	}
	if got := FullTorusLowerBound(4, 2); got != 8 {
		t.Errorf("FullTorusLowerBound(4,2) = %v, want 8", got)
	}
	if got := MultiODRUpperBound(4, 3, 2); got != 64 {
		t.Errorf("MultiODRUpperBound = %v, want 64", got)
	}
	if got := UDRUpperBound(4, 3); got != 64 {
		t.Errorf("UDRUpperBound = %v, want 64", got)
	}
	if got := MultiUDRUpperBound(4, 3, 3); got != 9*64 {
		t.Errorf("MultiUDRUpperBound = %v, want 576", got)
	}
}

func TestExpectedTotalSmall(t *testing.T) {
	tr := torus.New(3, 2)
	p := build(t, placement.Explicit{Label: "pair", Coords: [][]int{{0, 0}, {1, 1}}}, tr)
	// Two processors at Lee distance 2: total = 2 + 2.
	if got := ExpectedTotal(p); got != 4 {
		t.Errorf("ExpectedTotal = %v, want 4", got)
	}
}

func TestFARConcentratesMoreThanUDROnD2(t *testing.T) {
	// Extension finding (E15): uniform sampling over ALL minimal paths is
	// not uniformly better than UDR. On d=2 linear placements the
	// multinomial path distribution peaks mid-box and FAR's E_max exceeds
	// UDR's, even though FAR has far more paths per pair.
	for _, k := range []int{6, 8} {
		tr := torus.New(k, 2)
		p := build(t, placement.Linear{C: 0}, tr)
		udr := Compute(p, routing.UDR{}, Options{})
		far := Compute(p, routing.FAR{}, Options{})
		if far.Max <= udr.Max {
			t.Errorf("k=%d: expected FAR E_max (%v) above UDR (%v) from multinomial concentration",
				k, far.Max, udr.Max)
		}
	}
}

func TestDimensionOrderedFamilyMonotone(t *testing.T) {
	// Within the dimension-ordered family, enlarging the path set never
	// increases E_max: ODR ≥ ODR-multi ≥ ... and ODR ≥ UDR ≥ UDR-multi.
	for _, c := range []struct{ k, d int }{{4, 2}, {6, 2}, {4, 3}, {6, 3}} {
		tr := torus.New(c.k, c.d)
		p := build(t, placement.Linear{C: 0}, tr)
		odr := Compute(p, routing.ODR{}, Options{}).Max
		odrM := Compute(p, routing.ODRMulti{}, Options{}).Max
		udr := Compute(p, routing.UDR{}, Options{}).Max
		udrM := Compute(p, routing.UDRMulti{}, Options{}).Max
		if odrM > odr+1e-9 || udr > odr+1e-9 || udrM > udr+1e-9 {
			t.Errorf("T^%d_%d: monotonicity broken: ODR=%v ODRm=%v UDR=%v UDRm=%v",
				c.d, c.k, odr, odrM, udr, udrM)
		}
	}
}

func TestUDRLoadInvariantUnderDimensionPermutation(t *testing.T) {
	// The linear placement Σp ≡ 0 and the UDR/FAR path sets are symmetric
	// in the dimensions (odd k avoids tie-breaking asymmetry), so edge
	// loads must be invariant under dimension-permuting automorphisms.
	// ODR is excluded by design: its fixed correction order breaks the
	// symmetry (first/last dimensions funnel — the E6 finding).
	tr := torus.New(5, 3)
	p := build(t, placement.Linear{C: 0}, tr)
	aut, err := tr.NewAutomorphism([]int{2, 0, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The automorphism must stabilize the placement (sum of coords is
	// permutation invariant).
	for _, u := range p.Nodes() {
		if !p.Contains(aut.Node(u)) {
			t.Fatal("automorphism does not stabilize the placement")
		}
	}
	for _, alg := range []routing.Algorithm{routing.UDR{}, routing.FAR{}} {
		res := Compute(p, alg, Options{})
		tr.ForEachEdge(func(e torus.Edge) {
			img := aut.Edge(e)
			if math.Abs(res.Loads[e]-res.Loads[img]) > 1e-9 {
				t.Fatalf("%s: load differs across automorphism: %v vs %v",
					alg.Name(), res.Loads[e], res.Loads[img])
			}
		})
	}
}

func TestODRLoadBreaksDimensionSymmetry(t *testing.T) {
	// Counterpart to the invariance test: ODR's fixed order makes the
	// first/last dimensions hotter, so its load is NOT permutation
	// invariant — this asymmetry is exactly the funneling of E6.
	tr := torus.New(5, 3)
	p := build(t, placement.Linear{C: 0}, tr)
	res := Compute(p, routing.ODR{}, Options{})
	perDim := res.PerDimensionMax()
	if perDim[0] == perDim[1] && perDim[1] == perDim[2] {
		t.Errorf("ODR per-dimension maxima unexpectedly symmetric: %v", perDim)
	}
}

func TestTopEdges(t *testing.T) {
	tr := torus.New(4, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	res := Compute(p, routing.ODR{}, Options{})
	top := res.TopEdges(5)
	if len(top) != 5 {
		t.Fatalf("got %d edges", len(top))
	}
	if top[0].Load != res.Max {
		t.Errorf("top edge load %v, want max %v", top[0].Load, res.Max)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Load > top[i-1].Load {
			t.Fatal("TopEdges not sorted")
		}
	}
	all := res.TopEdges(1 << 20)
	if len(all) != len(res.Loads) {
		t.Errorf("oversized n should return all edges")
	}
}

func TestLoadAtDistance(t *testing.T) {
	tr := torus.New(5, 2)
	p := build(t, placement.Linear{C: 0}, tr)
	res := Compute(p, routing.ODR{}, Options{})
	prof := res.LoadAtDistance(p.Nodes()[0])
	if len(prof) != 5 { // max Lee distance on T^2_5 is 4
		t.Fatalf("profile length %d", len(prof))
	}
	total := 0.0
	for _, v := range prof {
		total += v
		if v < 0 {
			t.Fatal("negative mean load")
		}
	}
	if total <= 0 {
		t.Error("profile should carry load")
	}
}

func TestODROrderPermutesLoadProfile(t *testing.T) {
	// Reversing the correction order must exactly transpose the load
	// picture: the load of edge e under order (0,1,2) equals the load of
	// the dimension-permuted edge under order (2,1,0), via the coordinate
	// permutation automorphism that also fixes the linear placement.
	tr := torus.New(5, 3)
	p := build(t, placement.Linear{C: 0}, tr)
	fwd := Compute(p, routing.ODROrder{Order: []int{0, 1, 2}}, Options{})
	rev := Compute(p, routing.ODROrder{Order: []int{2, 1, 0}}, Options{})
	aut, err := tr.NewAutomorphism([]int{2, 1, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.ForEachEdge(func(e torus.Edge) {
		if math.Abs(fwd.Loads[e]-rev.Loads[aut.Edge(e)]) > 1e-9 {
			t.Fatalf("profiles are not permutation images: %v vs %v",
				fwd.Loads[e], rev.Loads[aut.Edge(e)])
		}
	})
	// And the funneling max follows the last-corrected dimension.
	fwdDims := fwd.PerDimensionMax()
	revDims := rev.PerDimensionMax()
	if fwdDims[2] != revDims[0] || fwdDims[0] != revDims[2] {
		t.Errorf("per-dim maxima not swapped: %v vs %v", fwdDims, revDims)
	}
}

func TestLargeScaleFormulasHold(t *testing.T) {
	// Scale check (skipped with -short): T^3_16 has |P| = 256 processors
	// and 65,280 ordered pairs; the funneling and §6.1 closed forms must
	// hold there exactly, and the parallel engine must agree with the
	// serial one bit-for-bit on integer ODR loads.
	if testing.Short() {
		t.Skip("scale test")
	}
	tr := torus.New(16, 3)
	p := build(t, placement.Linear{C: 0}, tr)
	par := Compute(p, routing.ODR{}, Options{})
	if want := ODRLinearMax(16, 3); par.Max != want {
		t.Errorf("E_max %v, funneling form %v", par.Max, want)
	}
	perDim := par.PerDimensionMax()
	if want, err := ODRLinearInteriorMax(16, 3); err != nil || perDim[1] != want {
		t.Errorf("interior max %v, §6.1 form %v (%v)", perDim[1], want, err)
	}
	ser := Compute(p, routing.ODR{}, Options{Workers: 1})
	for e := range par.Loads {
		if par.Loads[e] != ser.Loads[e] {
			t.Fatalf("parallel/serial divergence at edge %d", e)
		}
	}
	if want := ExpectedTotal(p); math.Abs(par.Total-want) > 1e-6 {
		t.Errorf("conservation at scale: %v vs %v", par.Total, want)
	}
}
