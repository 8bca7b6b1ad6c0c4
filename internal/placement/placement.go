// Package placement implements processor placements on partially populated
// tori (Definition 2 of Azizoglu & Egecioglu). A placement is a subset of
// the torus nodes that carry processors; all other nodes act only as
// routers. Placements here are *descriptions*: a Spec generates the
// placement P_{d,k} for any torus, which is what the paper's linearity
// statements quantify over.
package placement

import (
	"fmt"
	"math/bits"
	"sync"

	"torusnet/internal/torus"
)

// Placement is a concrete set of processor nodes on one torus.
type Placement struct {
	t      *torus.Torus
	nodes  []torus.Node // sorted, unique
	member []uint64     // bit u%64 of word u/64 is set for every processor u
	name   string

	// classes and coeffs are the translation group a builder records
	// (symmetry.go): the processors fill classes residue classes of
	// Σ coeffs_j·p_j mod k (coeffs reduced mod k; unread when classes = k,
	// the whole torus). Zero classes: no builder recorded a group.
	classes int
	coeffs  []int

	layerOnce sync.Once // guards the lazily computed layer counts
	layers    []uint64  // layers[dim·k + v]: processors in subtorus (dim, v)
}

// placements holds released placements for later builds to reuse: the
// struct, its node list, its membership and layer words, and its
// coefficients.
var placements = sync.Pool{New: func() any { return new(Placement) }}

// New builds a placement from an arbitrary node set. Duplicate nodes are
// collapsed; node indices must be valid for the torus.
func New(t *torus.Torus, nodes []torus.Node, name string) *Placement {
	p := acquire(t)
	for _, u := range nodes {
		if !t.InRange(u) {
			panic(fmt.Sprintf("placement: node %d out of range for %s", u, t))
		}
		p.member[u>>6] |= 1 << (u & 63)
	}
	return p.finish(name)
}

// acquire returns an empty placement on t, drawn from placements: its
// membership bitset has no bit set and room past its length for the d·k
// layer counts, zeroed too, so the two share one allocation. Nothing a
// released placement computed survives, its sync.Once and recorded group
// included; only its buffers' capacity does.
func acquire(t *torus.Torus) *Placement {
	p := placements.Get().(*Placement)
	words := (t.Nodes() + 63) / 64
	need := words + t.D()*t.K()
	member := p.member
	if cap(member) < need {
		member = make([]uint64, words, need)
	} else {
		member = member[:words]
		clear(member[:need])
	}
	*p = Placement{t: t, nodes: p.nodes[:0], member: member, coeffs: p.coeffs[:0]}
	return p
}

// finish names p and lists its processors, the set bits of its membership
// words: read off in increasing node order, the list comes out sorted and
// unique with no intermediate node list. The layer counts go in the
// words' spare capacity.
func (p *Placement) finish(name string) *Placement {
	n := 0
	for _, w := range p.member {
		n += bits.OnesCount64(w)
	}
	nodes := p.nodes[:0]
	if cap(nodes) < n {
		nodes = make([]torus.Node, 0, n)
	}
	for i, w := range p.member {
		for w != 0 {
			nodes = append(nodes, torus.Node(i<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	p.nodes, p.name, p.layers = nodes, name, p.member[len(p.member):cap(p.member)]
	return p
}

// Release hands p's buffers back for a later build, on any torus, to
// reuse. Neither p nor anything read from it (Nodes) may be used
// afterwards. A placement that is never released is collected like any
// other value.
func (p *Placement) Release() {
	if p.t == nil {
		panic("placement: Release of a released placement")
	}
	p.t, p.name = nil, "" // acquire clears the rest
	placements.Put(p)
}

// Torus returns the torus the placement lives on.
func (p *Placement) Torus() *torus.Torus { return p.t }

// Name returns the placement's descriptive name.
func (p *Placement) Name() string { return p.name }

// Size returns |P|, the number of processors.
func (p *Placement) Size() int { return len(p.nodes) }

// Nodes returns the processors in increasing node-index order. The caller
// must not mutate the returned slice.
func (p *Placement) Nodes() []torus.Node { return p.nodes }

// Contains reports whether node u carries a processor.
func (p *Placement) Contains(u torus.Node) bool { return p.member[u>>6]&(1<<(u&63)) != 0 }

// String describes the placement.
func (p *Placement) String() string {
	return fmt.Sprintf("%s on %s, |P|=%d", p.name, p.t, len(p.nodes))
}

// CountInSubtorus returns the number of processors in the given principal
// subtorus.
func (p *Placement) CountInSubtorus(s torus.Subtorus) int {
	return int(p.layerRow(s.Dim)[p.t.WrapCoord(s.Value)])
}

// layerRow returns the processor counts of the k principal subtori along
// dim. Every layer count is computed once, in one O(d·|P|) pass over the
// processors' coordinates, into the room acquire left for them.
func (p *Placement) layerRow(dim int) []uint64 {
	d, k := p.t.D(), p.t.K()
	if dim < 0 || dim >= d {
		panic("placement: subtorus dimension out of range")
	}
	p.layerOnce.Do(func() {
		p.layers = p.layers[:d*k]
		for _, u := range p.nodes {
			for j := 0; j < d; j++ {
				p.layers[j*k+p.t.Coord(u, j)]++
			}
		}
	})
	return p.layers[dim*k : (dim+1)*k]
}

// IsUniform reports whether every principal subtorus along every dimension
// contains the same number of processors (the paper's uniformity condition
// behind Theorem 1).
func (p *Placement) IsUniform() bool {
	for dim := 0; dim < p.t.D(); dim++ {
		if !p.UniformAlong(dim) {
			return false
		}
	}
	return true
}

// UniformAlong reports whether the placement assigns an equal number of
// processors to every principal subtorus along the single dimension dim —
// the weaker condition that already suffices for the Theorem 1 cut.
func (p *Placement) UniformAlong(dim int) bool {
	if len(p.nodes)%p.t.K() != 0 {
		return false
	}
	want := len(p.nodes) / p.t.K()
	for _, count := range p.layerRow(dim) {
		if int(count) != want {
			return false
		}
	}
	return true
}

// StabilizedBy reports whether translating every processor by offset maps
// the placement onto itself. Linear placements are stabilized by every
// offset whose weighted coordinate sum is 0 mod k.
func (p *Placement) StabilizedBy(offset []int) bool {
	for _, u := range p.nodes {
		if !p.Contains(p.t.Translate(u, offset)) {
			return false
		}
	}
	return true
}

// Pairs returns the number of ordered processor pairs |P|·(|P|−1), the
// message count of one complete exchange.
func (p *Placement) Pairs() int {
	n := len(p.nodes)
	return n * (n - 1)
}

// Spec generates the placement P_{d,k} for any torus; it is the paper's
// "placement description (algorithm)".
type Spec interface {
	// Fit reports, in O(d) and without building anything, whether the
	// spec describes a placement on t: it is the error Build returns, and
	// Build succeeds exactly when Fit returns nil.
	Fit(t *torus.Torus) error
	// Size reports, without building anything, how many processors Build
	// places on t, or the error Build returns: O(1) after Fit, and
	// O(|Coords|·d) for Explicit, whose coordinates may repeat a node.
	Size(t *torus.Torus) (int, error)
	// Build instantiates the placement on a concrete torus.
	Build(t *torus.Torus) (*Placement, error)
	// Name is a stable identifier such as "linear(c=0)":
	// string(AppendName(nil)).
	Name() string
	// AppendName appends Name's text to b and returns the extended
	// buffer, so a caller writing the name into a buffer of its own
	// allocates nothing.
	AppendName(b []byte) []byte
}

// UniformityDeviation quantifies how far the placement is from uniform:
// the maximum over dimensions and layers of |count(layer) − |P|/k|,
// normalized by |P|/k. Zero means uniform; the paper's conclusion asks how
// much of this can be relaxed while keeping Theorem 1's machinery — the
// E28 experiment uses it to show that search-found optimal placements
// drift *toward* uniformity.
func (p *Placement) UniformityDeviation() float64 {
	if p.Size() == 0 {
		return 0
	}
	mean := float64(p.Size()) / float64(p.t.K())
	worst := 0.0
	for dim := 0; dim < p.t.D(); dim++ {
		for _, count := range p.layerRow(dim) {
			dev := float64(count) - mean
			if dev < 0 {
				dev = -dev
			}
			if dev > worst {
				worst = dev
			}
		}
	}
	return worst / mean
}
