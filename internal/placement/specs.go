package placement

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
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
	var buf [48]byte
	return string(s.AppendName(buf[:0]))
}

// AppendName implements Spec: "linear(c=C)", or with explicit coefficients
// "linear(c=C,coeffs=[c1 c2 ..])", the text fmt's %v gives the slice.
func (s Linear) AppendName(b []byte) []byte {
	b = strconv.AppendInt(append(b, "linear(c="...), int64(s.C), 10)
	if s.Coeffs != nil {
		b = append(b, ",coeffs=["...)
		for i, c := range s.Coeffs {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
		b = append(b, ']')
	}
	return append(b, ')')
}

// Fit implements Spec.
func (s Linear) Fit(t *torus.Torus) error {
	return fitCoeffs(s.Coeffs, t)
}

// Size implements Spec: a unit coefficient fixes its coordinate once the
// other d−1 are chosen, so k^{d−1} nodes solve the equation.
func (s Linear) Size(t *torus.Torus) (int, error) {
	if err := s.Fit(t); err != nil {
		return 0, err
	}
	return t.Nodes() / t.K(), nil
}

// Build implements Spec.
func (s Linear) Build(t *torus.Torus) (*Placement, error) {
	if err := s.Fit(t); err != nil {
		return nil, err
	}
	return selectResidues(t, s.Coeffs, torus.Mod(s.C, t.K()), 1).finish(s.Name()), nil
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
	var buf [48]byte
	return string(s.AppendName(buf[:0]))
}

// AppendName implements Spec: "multilinear(t=T,start=S)".
func (s MultipleLinear) AppendName(b []byte) []byte {
	b = strconv.AppendInt(append(b, "multilinear(t="...), int64(s.T), 10)
	b = strconv.AppendInt(append(b, ",start="...), int64(s.Start), 10)
	return append(b, ')')
}

// Fit implements Spec.
func (s MultipleLinear) Fit(t *torus.Torus) error {
	if s.T < 1 {
		return fmt.Errorf("placement: multiple linear needs t >= 1, got %d", s.T)
	}
	if s.T > t.K() {
		return fmt.Errorf("placement: t=%d exceeds k=%d (placement would wrap onto itself)", s.T, t.K())
	}
	return fitCoeffs(s.Coeffs, t)
}

// Size implements Spec: t ≤ k distinct residues of k^{d−1} nodes each.
func (s MultipleLinear) Size(t *torus.Torus) (int, error) {
	if err := s.Fit(t); err != nil {
		return 0, err
	}
	return s.T * (t.Nodes() / t.K()), nil
}

// Build implements Spec.
func (s MultipleLinear) Build(t *torus.Torus) (*Placement, error) {
	if err := s.Fit(t); err != nil {
		return nil, err
	}
	return selectResidues(t, s.Coeffs, torus.Mod(s.Start, t.K()), s.T).finish(s.Name()), nil
}

// ShiftedDiagonal is the special case of a linear placement used by Blaum
// et al. for d = 3; it is provided under its historical name so experiments
// can reference the baseline placement directly. It equals Linear{C: Shift}.
type ShiftedDiagonal struct {
	Shift int
}

// Name implements Spec.
func (s ShiftedDiagonal) Name() string {
	var buf [40]byte
	return string(s.AppendName(buf[:0]))
}

// AppendName implements Spec: "shifted-diagonal(S)".
func (s ShiftedDiagonal) AppendName(b []byte) []byte {
	b = strconv.AppendInt(append(b, "shifted-diagonal("...), int64(s.Shift), 10)
	return append(b, ')')
}

// Fit implements Spec: Linear{C: Shift} fits every torus.
func (s ShiftedDiagonal) Fit(t *torus.Torus) error { return Linear{C: s.Shift}.Fit(t) }

// Build implements Spec.
func (s ShiftedDiagonal) Build(t *torus.Torus) (*Placement, error) {
	if err := s.Fit(t); err != nil {
		return nil, err
	}
	return selectResidues(t, nil, torus.Mod(s.Shift, t.K()), 1).finish(s.Name()), nil
}

// Size implements Spec: the count of Linear{C: Shift}.
func (s ShiftedDiagonal) Size(t *torus.Torus) (int, error) { return Linear{C: s.Shift}.Size(t) }

// ResidueClasses reads off the spec alone how many consecutive residue
// classes Σ p_i ≡ c (mod k) it places — the t the paper's closed forms
// (Theorems 2–5) are keyed on: 1 for Linear and ShiftedDiagonal, T for
// MultipleLinear. ok is false for every other spec and for explicit
// coefficient vectors, which the theorems do not cover. T is returned as
// given; Fit is what checks 1 ≤ T ≤ k.
func ResidueClasses(s Spec) (t int, ok bool) {
	switch v := s.(type) {
	case Linear:
		return 1, v.Coeffs == nil
	case ShiftedDiagonal:
		return 1, true
	case MultipleLinear:
		return v.T, v.Coeffs == nil
	}
	return 0, false
}

// Full populates every node: the classical fully populated torus whose
// maximum load grows superlinearly (§1 of the paper).
type Full struct{}

// Name implements Spec.
func (Full) Name() string { return "full" }

// AppendName implements Spec.
func (Full) AppendName(b []byte) []byte { return append(b, "full"...) }

// Fit implements Spec: every torus can be fully populated.
func (Full) Fit(*torus.Torus) error { return nil }

// Build implements Spec. The full torus is every residue class of any
// weighted sum, so it records the whole translation group.
func (Full) Build(t *torus.Torus) (*Placement, error) {
	p := acquire(t)
	for i := range p.member {
		p.member[i] = ^uint64(0)
	}
	if r := t.Nodes() % 64; r != 0 {
		p.member[len(p.member)-1] = ^uint64(0) >> (64 - r)
	}
	p.classes = t.K()
	return p.finish("full"), nil
}

// Size implements Spec.
func (Full) Size(t *torus.Torus) (int, error) { return t.Nodes(), nil }

// Random places Count processors uniformly at random (without replacement)
// using the given seed. It is the unstructured adversary used to exercise
// bisection machinery on non-uniform placements.
type Random struct {
	Count int
	Seed  int64
}

// Name implements Spec.
func (s Random) Name() string {
	var buf [48]byte
	return string(s.AppendName(buf[:0]))
}

// AppendName implements Spec: "random(n=N,seed=S)".
func (s Random) AppendName(b []byte) []byte {
	b = strconv.AppendInt(append(b, "random(n="...), int64(s.Count), 10)
	b = strconv.AppendInt(append(b, ",seed="...), s.Seed, 10)
	return append(b, ')')
}

// Fit implements Spec.
func (s Random) Fit(t *torus.Torus) error {
	if s.Count < 0 || s.Count > t.Nodes() {
		return fmt.Errorf("placement: random count %d out of range [0,%d]", s.Count, t.Nodes())
	}
	return nil
}

// Size implements Spec.
func (s Random) Size(t *torus.Torus) (int, error) {
	if err := s.Fit(t); err != nil {
		return 0, err
	}
	return s.Count, nil
}

// Build implements Spec.
func (s Random) Build(t *torus.Torus) (*Placement, error) {
	if err := s.Fit(t); err != nil {
		return nil, err
	}
	// math/rand's own Perm loop on a re-seeded pooled generator, into a
	// pooled buffer: the permutation rand.New(rand.NewSource(s.Seed)).Perm
	// returns, without allocating a source or the permutation. Its first
	// Count entries become the membership bits.
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
	p := acquire(t)
	for _, u := range perm[:s.Count] {
		p.member[u>>6] |= 1 << (u & 63)
	}
	randScratches.Put(sc)
	return p.finish(s.Name()), nil
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

// AppendName implements Spec: the label.
func (s Explicit) AppendName(b []byte) []byte { return append(b, s.Label...) }

// Fit implements Spec.
func (s Explicit) Fit(t *torus.Torus) error {
	for _, c := range s.Coords {
		if len(c) != t.D() {
			return fmt.Errorf("placement: coordinate %v has arity %d, want %d", c, len(c), t.D())
		}
	}
	return nil
}

// Size implements Spec: the distinct nodes the coordinates name.
func (s Explicit) Size(t *torus.Torus) (int, error) {
	if err := s.Fit(t); err != nil {
		return 0, err
	}
	nodes := make([]torus.Node, 0, len(s.Coords))
	for _, c := range s.Coords {
		nodes = append(nodes, t.NodeAt(c))
	}
	slices.Sort(nodes)
	return len(slices.Compact(nodes)), nil
}

// Build implements Spec.
func (s Explicit) Build(t *torus.Torus) (*Placement, error) {
	if err := s.Fit(t); err != nil {
		return nil, err
	}
	nodes := make([]torus.Node, 0, len(s.Coords))
	for _, c := range s.Coords {
		nodes = append(nodes, t.NodeAt(c))
	}
	return New(t, nodes, s.Label), nil
}

// fitCoeffs checks a linear coefficient vector against t: one coefficient
// per dimension, at least one of them a unit mod k. Nil (all ones) fits
// every torus.
func fitCoeffs(coeffs []int, t *torus.Torus) error {
	if coeffs == nil {
		return nil
	}
	if len(coeffs) != t.D() {
		return fmt.Errorf("placement: %d coefficients for %d dimensions", len(coeffs), t.D())
	}
	if !hasUnit(coeffs, t.K()) {
		return fmt.Errorf("placement: no coefficient of %v is a unit mod %d", coeffs, t.K())
	}
	return nil
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

// selectResidues returns the unfinished placement of the nodes whose
// weighted coordinate sum Σ c_j·p_j mod k lies in the window start,
// start+1, …, start+count−1 (mod k), for start in [0, k); nil coeffs
// means all ones. It records the coefficients, reduced mod k, and the
// count as the placement's translation group.
func selectResidues(t *torus.Torus, coeffs []int, start, count int) *Placement {
	k := t.K()
	p := acquire(t)
	cs := p.coeffs[:0]
	for j := 0; j < t.D(); j++ {
		c := 1
		if coeffs != nil {
			c = torus.Mod(coeffs[j], k)
		}
		cs = append(cs, c)
	}
	p.coeffs, p.classes = cs, count
	member := p.member
	var coordBuf [8]int
	o := odometer{k: k, cs: cs, coords: append(coordBuf[:0], make([]int, len(cs))...)}
	for u := 0; u < t.Nodes(); u++ {
		if off := o.r - start; off >= 0 && off < count || off < 0 && off+k < count {
			member[u>>6] |= 1 << (u & 63)
		}
		o.next()
	}
	return p
}
