package placement

import (
	"fmt"
	"math/rand"
	"sync"

	"torusnet/internal/torus"
)

// Linear is the paper's linear placement (Definition 10):
//
//	P = { p : c_1·p_1 + ... + c_d·p_d ≡ C (mod k) },
//
// where at least one coefficient is a unit modulo k. With unit coefficients
// the placement has exactly k^{d-1} processors and is uniform. A nil
// Coeffs means all-ones, the simple form used throughout the paper.
type Linear struct {
	C      int
	Coeffs []int // nil means (1, 1, ..., 1)
}

// Name implements Spec.
func (s Linear) Name() string {
	if s.Coeffs == nil {
		return fmt.Sprintf("linear(c=%d)", s.C)
	}
	return fmt.Sprintf("linear(c=%d,coeffs=%v)", s.C, s.Coeffs)
}

// Build implements Spec.
func (s Linear) Build(t *torus.Torus) (*Placement, error) {
	coeffs := s.Coeffs
	if coeffs == nil {
		coeffs = ones(t.D())
	}
	if len(coeffs) != t.D() {
		return nil, fmt.Errorf("placement: %d coefficients for %d dimensions", len(coeffs), t.D())
	}
	if !hasUnit(coeffs, t.K()) {
		return nil, fmt.Errorf("placement: no coefficient of %v is a unit mod %d", coeffs, t.K())
	}
	nodes := selectByResidue(t, coeffs, func(r int) bool { return r == torus.Mod(s.C, t.K()) })
	return New(t, nodes, s.Name()), nil
}

// MultipleLinear is the union P_1 ∪ ... ∪ P_t of t consecutive linear
// placements (§5): residues Start, Start+1, ..., Start+T-1 modulo k. Its
// size is t·k^{d-1} and it is uniform for unit coefficients.
type MultipleLinear struct {
	Start  int
	T      int
	Coeffs []int // nil means (1, 1, ..., 1)
}

// Name implements Spec.
func (s MultipleLinear) Name() string {
	return fmt.Sprintf("multilinear(t=%d,start=%d)", s.T, s.Start)
}

// Build implements Spec.
func (s MultipleLinear) Build(t *torus.Torus) (*Placement, error) {
	if s.T < 1 {
		return nil, fmt.Errorf("placement: multiple linear needs t >= 1, got %d", s.T)
	}
	if s.T > t.K() {
		return nil, fmt.Errorf("placement: t=%d exceeds k=%d (placement would wrap onto itself)", s.T, t.K())
	}
	coeffs := s.Coeffs
	if coeffs == nil {
		coeffs = ones(t.D())
	}
	if len(coeffs) != t.D() {
		return nil, fmt.Errorf("placement: %d coefficients for %d dimensions", len(coeffs), t.D())
	}
	if !hasUnit(coeffs, t.K()) {
		return nil, fmt.Errorf("placement: no coefficient of %v is a unit mod %d", coeffs, t.K())
	}
	start := torus.Mod(s.Start, t.K())
	in := make([]bool, t.K())
	for i := 0; i < s.T; i++ {
		in[(start+i)%t.K()] = true
	}
	nodes := selectByResidue(t, coeffs, func(r int) bool { return in[r] })
	return New(t, nodes, s.Name()), nil
}

// ShiftedDiagonal is the special case of a linear placement used by Blaum
// et al. for d = 3; it is provided under its historical name so experiments
// can reference the baseline placement directly. It equals Linear{C: Shift}.
type ShiftedDiagonal struct {
	Shift int
}

// Name implements Spec.
func (s ShiftedDiagonal) Name() string { return fmt.Sprintf("shifted-diagonal(%d)", s.Shift) }

// Build implements Spec.
func (s ShiftedDiagonal) Build(t *torus.Torus) (*Placement, error) {
	p, err := Linear{C: s.Shift}.Build(t)
	if err != nil {
		return nil, err
	}
	return New(t, p.Nodes(), s.Name()), nil
}

// Full populates every node: the classical fully populated torus whose
// maximum load grows superlinearly (§1 of the paper).
type Full struct{}

// Name implements Spec.
func (Full) Name() string { return "full" }

// Build implements Spec.
func (Full) Build(t *torus.Torus) (*Placement, error) {
	nodes := make([]torus.Node, t.Nodes())
	for i := range nodes {
		nodes[i] = torus.Node(i)
	}
	return New(t, nodes, "full"), nil
}

// Random places Count processors uniformly at random (without replacement)
// using the given seed. It is the unstructured adversary used to exercise
// bisection machinery on non-uniform placements.
type Random struct {
	Count int
	Seed  int64
}

// Name implements Spec.
func (s Random) Name() string { return fmt.Sprintf("random(n=%d,seed=%d)", s.Count, s.Seed) }

// Build implements Spec.
func (s Random) Build(t *torus.Torus) (*Placement, error) {
	if s.Count < 0 || s.Count > t.Nodes() {
		return nil, fmt.Errorf("placement: random count %d out of range [0,%d]", s.Count, t.Nodes())
	}
	// math/rand's own Perm loop on a re-seeded pooled generator, into a
	// pooled buffer: the permutation rand.New(rand.NewSource(s.Seed)).Perm
	// returns, without allocating a source or the permutation. New copies
	// the first Count entries out in node order.
	sc := randScratches.Get().(*randScratch)
	sc.rng.Seed(s.Seed)
	if cap(sc.perm) < t.Nodes() {
		sc.perm = make([]torus.Node, t.Nodes())
	}
	perm := sc.perm[:t.Nodes()]
	for i := range perm {
		j := sc.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = torus.Node(i)
	}
	p := New(t, perm[:s.Count], s.Name())
	randScratches.Put(sc)
	return p, nil
}

// randScratch is the generator and permutation buffer Random.Build
// borrows from randScratches.
type randScratch struct {
	rng  *rand.Rand
	perm []torus.Node
}

var randScratches = sync.Pool{New: func() any { return &randScratch{rng: rand.New(rand.NewSource(0))} }}

// Explicit wraps a fixed node list, e.g. the three-processor placement of
// the paper's Fig. 1. Coordinates are given per processor.
type Explicit struct {
	Label  string
	Coords [][]int
}

// Name implements Spec.
func (s Explicit) Name() string { return s.Label }

// Build implements Spec.
func (s Explicit) Build(t *torus.Torus) (*Placement, error) {
	nodes := make([]torus.Node, 0, len(s.Coords))
	for _, c := range s.Coords {
		if len(c) != t.D() {
			return nil, fmt.Errorf("placement: coordinate %v has arity %d, want %d", c, len(c), t.D())
		}
		nodes = append(nodes, t.NodeAt(c))
	}
	return New(t, nodes, s.Label), nil
}

func ones(d int) []int {
	out := make([]int, d)
	for i := range out {
		out[i] = 1
	}
	return out
}

func hasUnit(coeffs []int, k int) bool {
	for _, c := range coeffs {
		if gcd(torus.Mod(c, k), k) == 1 {
			return true
		}
	}
	return false
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// selectByResidue gathers all nodes whose weighted coordinate sum modulo k
// satisfies the predicate.
func selectByResidue(t *torus.Torus, coeffs []int, accept func(int) bool) []torus.Node {
	k := t.K()
	cs := make([]int, len(coeffs))
	for i, c := range coeffs {
		cs[i] = torus.Mod(c, k)
	}
	nodes := make([]torus.Node, 0, t.Nodes()/k)
	coords := make([]int, t.D())
	t.ForEachNode(func(u torus.Node) {
		t.CoordsInto(u, coords)
		sum := 0
		for j, c := range coords {
			sum += cs[j] * c
		}
		if accept(sum % k) {
			nodes = append(nodes, u)
		}
	})
	return nodes
}
