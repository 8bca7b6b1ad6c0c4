package bisect

import (
	"container/list"
	"math/big"
	"sort"
	"sync"

	"torusnet/internal/torus"
)

// tableBudget bounds the total node count of the sweep tables the package
// keeps between calls. A torus whose table alone would exceed it gets a
// table built for the call and dropped afterwards.
const tableBudget = 1 << 16

// Table is the appendix sweep of one torus shape (k, d), computed once and
// shared read-only: the sweep rank of every node and the directed crossing
// width of every sweep prefix. Prefix n is the partition whose A side
// holds the n nodes of smallest sweep key, i.e. a hyperplane position
// between the n-th and (n+1)-th node. The sweep order itself is the
// inverse of the ranks, so it is not stored.
type Table struct {
	rank  []int32 // rank[u] is u's position in sweep order
	width []int   // width[n] counts directed edges crossing prefix n; len N+1
}

// Rank returns u's position in sweep order.
func (tb *Table) Rank(u torus.Node) int { return int(tb.rank[u]) }

// Width returns the directed crossing width of prefix n, 0 ≤ n ≤ N.
func (tb *Table) Width(n int) int { return tb.width[n] }

// Len returns the node count N.
func (tb *Table) Len() int { return len(tb.rank) }

type shape struct{ k, d int }

type tableEntry struct {
	shape shape
	nodes int
	ready chan struct{} // closed once tab is set
	tab   *Table
}

// tables is the process-wide cache, least recently used at the back.
var tables = struct {
	sync.Mutex
	byShape map[shape]*list.Element
	lru     list.List
	nodes   int
}{byShape: make(map[shape]*list.Element)}

// TableFor returns the sweep table of t's shape, from the cache when it is
// there. The first caller for a shape builds the table outside the lock;
// concurrent callers for the same shape wait for it.
func TableFor(t *torus.Torus) *Table {
	n := t.Nodes()
	if n > tableBudget {
		return buildTable(t)
	}
	s := shape{t.K(), t.D()}
	tables.Lock()
	el, found := tables.byShape[s]
	if found {
		tables.lru.MoveToFront(el)
	} else {
		for tables.nodes+n > tableBudget {
			old := tables.lru.Remove(tables.lru.Back()).(*tableEntry)
			delete(tables.byShape, old.shape)
			tables.nodes -= old.nodes
		}
		el = tables.lru.PushFront(&tableEntry{shape: s, nodes: n, ready: make(chan struct{})})
		tables.byShape[s] = el
		tables.nodes += n
	}
	e := el.Value.(*tableEntry)
	tables.Unlock()
	if found {
		<-e.ready
	} else {
		e.tab = buildTable(t)
		close(e.ready)
	}
	return e.tab
}

// buildTable sorts the nodes by exact sweep key and walks the order once,
// keeping the crossing width incrementally: when u joins side A, each
// directed edge pair between u and an A neighbour stops crossing (−2) and
// each pair to a B neighbour starts (+2). At k = 2 both directions of a
// dimension reach the same neighbour, so the parallel links count twice.
func buildTable(t *torus.Torus) *Table {
	order := sortedBySweepKey(t)
	tb := &Table{rank: make([]int32, len(order)), width: make([]int, len(order)+1)}
	for i, u := range order {
		tb.rank[u] = int32(i)
	}
	w := 0
	for i, u := range order {
		for j := 0; j < t.D(); j++ {
			for _, dir := range [...]torus.Direction{torus.Plus, torus.Minus} {
				if tb.rank[t.Step(u, j, dir)] < int32(i) {
					w -= 2
				} else {
					w += 2
				}
			}
		}
		tb.width[i+1] = w
	}
	return tb
}

// sortedBySweepKey returns all torus nodes sorted by their exact hyperplane
// projection Σ_j a_j γ^j (ties impossible by the choice of γ; see Sweep).
// Prefixes of this order are exactly the origin-side slabs the appendix
// proof sweeps through.
func sortedBySweepKey(t *torus.Torus) []torus.Node {
	keys := sweepKeys(t)
	order := make([]torus.Node, t.Nodes())
	for i := range order {
		order[i] = torus.Node(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return keys[order[a]].Cmp(keys[order[b]]) < 0
	})
	return order
}

// sweepKeys returns, for every node a, the exact integer
// Σ_j a_j · (M+1)^j · M^{d−1−j}, which orders nodes identically to the
// real-valued projection Σ_j a_j γ^j for γ = (M+1)/M.
func sweepKeys(t *torus.Torus) []*big.Int {
	d, k := t.D(), t.K()
	m := k
	if d > m {
		m = d
	}
	if m < 16 {
		m = 16
	}
	mBig := big.NewInt(int64(m))
	m1Big := big.NewInt(int64(m + 1))

	// weights[j] = (M+1)^j · M^{d−1−j}
	weights := make([]*big.Int, d)
	for j := 0; j < d; j++ {
		w := new(big.Int).Exp(m1Big, big.NewInt(int64(j)), nil)
		w.Mul(w, new(big.Int).Exp(mBig, big.NewInt(int64(d-1-j)), nil))
		weights[j] = w
	}

	keys := make([]*big.Int, t.Nodes())
	coords := make([]int, d)
	t.ForEachNode(func(u torus.Node) {
		t.CoordsInto(u, coords)
		key := new(big.Int)
		tmp := new(big.Int)
		for j, a := range coords {
			tmp.SetInt64(int64(a))
			tmp.Mul(tmp, weights[j])
			key.Add(key, tmp)
		}
		keys[u] = key
	})
	return keys
}

// window returns the balanced window of p's sweep: lo is the shortest
// prefix holding ⌊|P|/2⌋ processors (0 when that is none) and hi the
// longest, the rank of the next processor (N when there is none). It
// costs O(|P|): one selection over the processors' ranks.
func (tb *Table) window(nodes []torus.Node) (lo, hi int) {
	// The ranks of up to 512 processors (T³₈ fully populated) fit a stack
	// buffer; only larger placements allocate the selection's scratch.
	var buf [512]int32
	ranks := buf[:0]
	if len(nodes) > len(buf) {
		ranks = make([]int32, 0, len(nodes))
	}
	for _, u := range nodes {
		ranks = append(ranks, tb.rank[u])
	}
	target := len(ranks) / 2
	if target > 0 {
		lo = int(selectRank(ranks, target-1)) + 1
	}
	// selectRank left every rank above the selected one in ranks[target:].
	hi = tb.Len()
	for _, r := range ranks[target:] {
		if int(r) < hi {
			hi = int(r)
		}
	}
	return lo, hi
}

// selectRank reorders the distinct values in a so that a[i] holds the i-th
// smallest, everything before it is smaller and everything after larger,
// and returns a[i] (quickselect, median-of-three pivot).
func selectRank(a []int32, i int) int32 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		a[mid], a[hi] = a[hi], a[mid]
		store := lo
		for j := lo; j < hi; j++ {
			if a[j] < pivot {
				a[j], a[store] = a[store], a[j]
				store++
			}
		}
		a[store], a[hi] = a[hi], a[store]
		switch {
		case i < store:
			hi = store - 1
		case i > store:
			lo = store + 1
		default:
			return a[store]
		}
	}
	return a[lo]
}
