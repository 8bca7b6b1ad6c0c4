package lee

import (
	"math"
	"testing"
	"testing/quick"

	"torusnet/internal/load"
	"torusnet/internal/placement"
	"torusnet/internal/torus"
)

func TestRingDistanceSum(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 4, 5: 6, 6: 9, 7: 12, 8: 16}
	for k, want := range cases {
		if got := RingDistanceSum(k); got != want {
			t.Errorf("RingDistanceSum(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestRingDistanceSumAgainstEnumeration(t *testing.T) {
	fn := func(kRaw uint8) bool {
		k := int(kRaw%30) + 2
		sum := 0
		for j := 0; j < k; j++ {
			sum += torus.CyclicDistance(0, j, k)
		}
		return sum == RingDistanceSum(k)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

// TestTorusMeanDistanceAgainstBFS checks the torus mean Lee distance
// d · RingMeanDistance(k) (coordinates are independent) by enumeration.
func TestTorusMeanDistanceAgainstBFS(t *testing.T) {
	for _, c := range []struct{ k, d int }{{3, 2}, {4, 2}, {5, 2}, {4, 3}} {
		tr := torus.New(c.k, c.d)
		sum := 0
		tr.ForEachNode(func(v torus.Node) {
			sum += tr.LeeDistance(0, v)
		})
		got := float64(c.d) * RingMeanDistance(c.k)
		want := float64(sum) / float64(tr.Nodes())
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("T^%d_%d: mean distance %v, enumeration %v", c.d, c.k, got, want)
		}
	}
}

func TestDiameter(t *testing.T) {
	for _, c := range []struct{ k, d, want int }{{4, 2, 4}, {5, 2, 4}, {8, 3, 12}, {3, 4, 4}} {
		if got := Diameter(c.k, c.d); got != c.want {
			t.Errorf("Diameter(%d,%d) = %d, want %d", c.k, c.d, got, c.want)
		}
		// Cross-check with the true eccentricity.
		tr := torus.New(c.k, c.d)
		maxDist := 0
		tr.ForEachNode(func(v torus.Node) {
			if d := tr.LeeDistance(0, v); d > maxDist {
				maxDist = d
			}
		})
		if maxDist != c.want {
			t.Errorf("T^%d_%d eccentricity %d, formula %d", c.d, c.k, maxDist, c.want)
		}
	}
}

func TestSphereSizesSumToNodeCount(t *testing.T) {
	for _, c := range []struct{ k, d int }{{3, 2}, {4, 2}, {5, 3}, {4, 4}, {7, 2}} {
		total := 0
		for r := 0; r <= Diameter(c.k, c.d); r++ {
			total += SphereSize(c.k, c.d, r)
		}
		want := 1
		for i := 0; i < c.d; i++ {
			want *= c.k
		}
		if total != want {
			t.Errorf("T^%d_%d: sphere sizes sum to %d, want %d", c.d, c.k, total, want)
		}
	}
}

func TestSphereSizeAgainstEnumeration(t *testing.T) {
	for _, c := range []struct{ k, d int }{{4, 2}, {5, 2}, {4, 3}, {5, 3}} {
		tr := torus.New(c.k, c.d)
		counts := make(map[int]int)
		tr.ForEachNode(func(v torus.Node) {
			counts[tr.LeeDistance(0, v)]++
		})
		for r, want := range counts {
			if got := SphereSize(c.k, c.d, r); got != want {
				t.Errorf("T^%d_%d: sphere r=%d size %d, enumeration %d", c.d, c.k, r, got, want)
			}
		}
	}
}

func TestSphereSizeOutOfRange(t *testing.T) {
	if SphereSize(4, 2, -1) != 0 || SphereSize(4, 2, 100) != 0 {
		t.Error("out-of-range radii should have empty spheres")
	}
}

func TestBallSize(t *testing.T) {
	// A radius-diameter ball covers the torus.
	if got := BallSize(5, 2, Diameter(5, 2)); got != 25 {
		t.Errorf("full ball = %d, want 25", got)
	}
	// Radius 1 ball is the node plus its 2d neighbors.
	if got := BallSize(5, 3, 1); got != 7 {
		t.Errorf("unit ball = %d, want 7", got)
	}
}

func TestFullExchangeTotalMatchesLoadEngine(t *testing.T) {
	for _, c := range []struct{ k, d int }{{3, 2}, {4, 2}, {5, 2}, {3, 3}, {4, 3}} {
		tr := torus.New(c.k, c.d)
		p, err := placement.Full{}.Build(tr)
		if err != nil {
			t.Fatal(err)
		}
		got := FullExchangeTotal(c.k, c.d)
		want := load.ExpectedTotal(p)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("T^%d_%d: closed form %v, enumeration %v", c.d, c.k, got, want)
		}
	}
}

func TestLinearExchangeTotalMatchesLoadEngine(t *testing.T) {
	for _, c := range []struct{ k, d int }{{3, 2}, {4, 2}, {5, 2}, {4, 3}, {5, 3}, {6, 3}, {3, 4}} {
		tr := torus.New(c.k, c.d)
		p, err := placement.Linear{C: 0}.Build(tr)
		if err != nil {
			t.Fatal(err)
		}
		got := LinearExchangeTotal(c.k, c.d)
		want := load.ExpectedTotal(p)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("T^%d_%d: closed form %v, enumeration %v", c.d, c.k, got, want)
		}
	}
}

func TestLinearExchangeResidueInvariance(t *testing.T) {
	// The total is the same for every residue class c (translation symmetry).
	tr := torus.New(5, 3)
	var first float64
	for c := 0; c < 5; c++ {
		p, err := placement.Linear{C: c}.Build(tr)
		if err != nil {
			t.Fatal(err)
		}
		tot := load.ExpectedTotal(p)
		if c == 0 {
			first = tot
			continue
		}
		if tot != first {
			t.Errorf("residue %d total %v differs from residue 0 total %v", c, tot, first)
		}
	}
}
