// Package torus models the d-dimensional k-torus T^d_k as a directed graph,
// following Definition 1 of Azizoglu & Egecioglu: the vertex set is Z_k^d and
// there is one directed edge (link) from a node to each of its 2d neighbors,
// obtained by changing a single coordinate by ±1 modulo k.
//
// Nodes and edges are identified by dense integer indices so that large tori
// can be processed with flat slices instead of hash maps. For a torus with
// n = k^d nodes there are exactly 2·d·n directed edges.
package torus

import (
	"fmt"
	"strconv"
	"sync"
)

// Direction of travel along a dimension.
type Direction int

const (
	// Plus is the direction that increases a coordinate by 1 (mod k).
	Plus Direction = iota
	// Minus is the direction that decreases a coordinate by 1 (mod k).
	Minus
)

// String returns "+" or "-".
func (dir Direction) String() string {
	if dir == Plus {
		return "+"
	}
	return "-"
}

// Opposite returns the reverse direction.
func (dir Direction) Opposite() Direction {
	if dir == Plus {
		return Minus
	}
	return Plus
}

// Node is a dense index of a torus vertex in [0, k^d).
// The coordinate vector (a_1, ..., a_d) maps to
// a_1 + a_2·k + a_3·k² + ... (dimension 1 is the fastest varying).
type Node int

// Edge is a dense index of a directed link in [0, 2·d·k^d).
// The edge leaving node u along dimension j (0-based) in direction dir has
// index u·2d + 2j + dir.
type Edge int

// Torus is an immutable descriptor of T^d_k.
type Torus struct {
	k       int
	d       int
	nodes   int   // k^d
	strides []int // strides[j] = k^j
}

// MaxNodes bounds the size of a torus this package will construct; it keeps
// index arithmetic comfortably inside int64 and guards against accidental
// construction of tori too large to enumerate.
const MaxNodes = 1 << 28

// New constructs the d-dimensional k-torus. It panics if k < 2, d < 1, or
// the torus would exceed MaxNodes nodes; use Check to validate parameters
// without panicking.
//
// A Torus is immutable, so New hands every caller asking for the same
// shape the same one: a shape built before costs a map read, not two
// allocations. The first maxShapes shapes are kept for the process's
// life (a few KiB); later ones are built fresh on every call.
func New(k, d int) *Torus {
	s := [2]int{k, d}
	shapes.RLock()
	t := shapes.byShape[s]
	shapes.RUnlock()
	if t != nil {
		return t
	}
	if err := Check(k, d); err != nil {
		panic(err)
	}
	strides := make([]int, d+1)
	strides[0] = 1
	for j := 1; j <= d; j++ {
		strides[j] = strides[j-1] * k
	}
	t = &Torus{k: k, d: d, nodes: strides[d], strides: strides}
	shapes.Lock()
	if old := shapes.byShape[s]; old != nil {
		t = old
	} else if len(shapes.byShape) < maxShapes {
		shapes.byShape[s] = t
	}
	shapes.Unlock()
	return t
}

// maxShapes bounds the shapes New keeps.
const maxShapes = 1024

// shapes holds the tori New has built, by (k, d).
var shapes = struct {
	sync.RWMutex
	byShape map[[2]int]*Torus
}{byShape: make(map[[2]int]*Torus)}

// Check reports whether (k, d) describe a torus this package can represent.
func Check(k, d int) error {
	if k < 2 {
		return fmt.Errorf("torus: k must be at least 2, got %d", k)
	}
	if d < 1 {
		return fmt.Errorf("torus: d must be at least 1, got %d", d)
	}
	_, err := Volume(k, d)
	return err
}

// K returns the radix (nodes per dimension).
func (t *Torus) K() int { return t.k }

// D returns the number of dimensions.
func (t *Torus) D() int { return t.d }

// Nodes returns the number of nodes, k^d.
func (t *Torus) Nodes() int { return t.nodes }

// Edges returns the number of directed edges, 2·d·k^d.
func (t *Torus) Edges() int { return 2 * t.d * t.nodes }

// String describes the torus, e.g. "T^3_8 (512 nodes)".
func (t *Torus) String() string {
	return fmt.Sprintf("T^%d_%d (%d nodes)", t.d, t.k, t.nodes)
}

// NodeAt returns the node with the given coordinate vector. Coordinates are
// reduced modulo k, so any integer vector is accepted. The slice length must
// equal D.
func (t *Torus) NodeAt(coords []int) Node {
	if len(coords) != t.d {
		panic(fmt.Sprintf("torus: coordinate vector has length %d, want %d", len(coords), t.d))
	}
	idx := 0
	for j, c := range coords {
		idx += t.WrapCoord(c) * t.strides[j]
	}
	return Node(idx)
}

// Coord returns the j-th (0-based) coordinate of node u.
func (t *Torus) Coord(u Node, j int) int {
	return int(u) / t.strides[j] % t.k
}

// Coords decodes u into a freshly allocated coordinate vector.
func (t *Torus) Coords(u Node) []int {
	out := make([]int, t.d)
	t.CoordsInto(u, out)
	return out
}

// CoordsInto decodes u into dst, which must have length D. It avoids the
// allocation of Coords for hot loops.
func (t *Torus) CoordsInto(u Node, dst []int) {
	idx := int(u)
	for j := 0; j < t.d; j++ {
		dst[j] = idx % t.k
		idx /= t.k
	}
}

// InRange reports whether u is a valid node index.
func (t *Torus) InRange(u Node) bool {
	return u >= 0 && int(u) < t.nodes
}

// Step returns the neighbor of u along dimension j in direction dir.
func (t *Torus) Step(u Node, j int, dir Direction) Node {
	c := t.Coord(u, j)
	var nc int
	if dir == Plus {
		nc = c + 1
		if nc == t.k {
			nc = 0
		}
	} else {
		nc = c - 1
		if nc < 0 {
			nc = t.k - 1
		}
	}
	return u + Node((nc-c)*t.strides[j])
}

// EdgeFrom returns the directed edge leaving u along dimension j in
// direction dir.
func (t *Torus) EdgeFrom(u Node, j int, dir Direction) Edge {
	return Edge(int(u)*2*t.d + 2*j + int(dir))
}

// EdgeSource returns the node the edge leaves.
func (t *Torus) EdgeSource(e Edge) Node {
	return Node(int(e) / (2 * t.d))
}

// EdgeDim returns the dimension (0-based) the edge travels along.
func (t *Torus) EdgeDim(e Edge) int {
	return int(e) % (2 * t.d) / 2
}

// EdgeDir returns the direction the edge travels.
func (t *Torus) EdgeDir(e Edge) Direction {
	return Direction(int(e) % 2)
}

// EdgeTarget returns the node the edge enters.
func (t *Torus) EdgeTarget(e Edge) Node {
	return t.Step(t.EdgeSource(e), t.EdgeDim(e), t.EdgeDir(e))
}

// Reverse returns the edge with the same endpoints travelled backwards.
func (t *Torus) Reverse(e Edge) Edge {
	return t.EdgeFrom(t.EdgeTarget(e), t.EdgeDim(e), t.EdgeDir(e).Opposite())
}

// EdgeString renders an edge as "[a b ..] -> [c d ..]" for diagnostics,
// the text fmt's %v gives two coordinate slices, built with one
// allocation: the string.
func (t *Torus) EdgeString(e Edge) string {
	var buf [64]byte
	return string(t.AppendEdge(buf[:0], e))
}

// AppendEdge appends EdgeString's text for e to b and returns the
// extended buffer.
func (t *Torus) AppendEdge(b []byte, e Edge) []byte {
	b = t.appendCoords(b, t.EdgeSource(e))
	b = append(b, " -> "...)
	return t.appendCoords(b, t.EdgeTarget(e))
}

// ParseEdge returns the edge whose AppendEdge text is s. It refuses any
// other text: a malformed one, a coordinate out of [0, k) or a vector of
// other than d coordinates, and two nodes that are not neighbors. On
// k = 2 the + and − edges along a dimension join the same two nodes and
// print alike; ParseEdge returns the + edge.
func (t *Torus) ParseEdge(s string) (Edge, error) {
	u, rest, ok := t.parseCoords(s)
	if !ok || len(rest) < 4 || rest[:4] != " -> " {
		return 0, fmt.Errorf("torus: malformed edge %q", s)
	}
	v, rest, ok := t.parseCoords(rest[4:])
	if !ok || rest != "" {
		return 0, fmt.Errorf("torus: malformed edge %q", s)
	}
	for j := 0; j < t.d; j++ {
		for _, dir := range [2]Direction{Plus, Minus} {
			if t.Step(u, j, dir) == v {
				return t.EdgeFrom(u, j, dir), nil
			}
		}
	}
	return 0, fmt.Errorf("torus: edge %q joins nodes that are not neighbors on %s", s, t)
}

// parseCoords reads the coordinate vector appendCoords writes at the head
// of s, returning its node and the rest of s; ok is false unless the head
// is exactly that text for a node of t (no sign, no leading zero, d
// coordinates each below k).
func (t *Torus) parseCoords(s string) (u Node, rest string, ok bool) {
	if s == "" || s[0] != '[' {
		return 0, s, false
	}
	i, idx := 1, 0
	for j := 0; j < t.d; j++ {
		if j > 0 {
			if i == len(s) || s[i] != ' ' {
				return 0, s, false
			}
			i++
		}
		start, c := i, 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' && c < t.k {
			c = c*10 + int(s[i]-'0')
			i++
		}
		if i == start || c >= t.k || s[start] == '0' && i-start > 1 {
			return 0, s, false
		}
		idx += c * t.strides[j]
	}
	if i == len(s) || s[i] != ']' {
		return 0, s, false
	}
	return Node(idx), s[i+1:], true
}

// appendCoords appends u's coordinate vector to b as fmt's %v prints an
// []int: "[a b ..]".
func (t *Torus) appendCoords(b []byte, u Node) []byte {
	b = append(b, '[')
	idx := int(u)
	for j := 0; j < t.d; j++ {
		if j > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(idx%t.k), 10)
		idx /= t.k
	}
	return append(b, ']')
}

// ForEachNode invokes fn for every node in increasing index order.
func (t *Torus) ForEachNode(fn func(Node)) {
	for u := 0; u < t.nodes; u++ {
		fn(Node(u))
	}
}

// ForEachEdge invokes fn for every directed edge in increasing index order.
func (t *Torus) ForEachEdge(fn func(Edge)) {
	for e := 0; e < t.Edges(); e++ {
		fn(Edge(e))
	}
}

// Translate returns the node obtained by adding the offset vector to u,
// coordinate-wise modulo k. The offset length must equal D.
func (t *Torus) Translate(u Node, offset []int) Node {
	if len(offset) != t.d {
		panic(fmt.Sprintf("torus: offset vector has length %d, want %d", len(offset), t.d))
	}
	idx := 0
	for j := 0; j < t.d; j++ {
		idx += t.WrapCoord(t.Coord(u, j)+offset[j]) * t.strides[j]
	}
	return Node(idx)
}

// TranslateEdge translates an edge by the offset vector; the resulting edge
// has the translated source and the same dimension and direction.
func (t *Torus) TranslateEdge(e Edge, offset []int) Edge {
	return t.EdgeFrom(t.Translate(t.EdgeSource(e), offset), t.EdgeDim(e), t.EdgeDir(e))
}
