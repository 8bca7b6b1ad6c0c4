package load

import (
	"context"
	"math"
	"math/bits"
	"slices"

	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// The ring-flow engine: exact ODR and UDR loads from per-ring marginals.
//
// Fix the dimension-j edge at node v. Under the five dimension-ordered
// routings a pair (s, t) crosses it only if s and t meet per-coordinate
// conditions against v on the other d−1 dimensions and v_j lies on the
// pair's arc from s_j to t_j. On the ring through v along j the load is
// therefore a sum of rank-one flows Σ_c w_c Σ_{x,y} A_c(x)·B_c(y)·[arc x→y
// passes the edge], one per class c of those conditions:
//
//   - ODR: one class with w = 1. A(x) counts the processors p with p_j = x
//     that agree with v on the dimensions corrected after j (p_{>j} =
//     v_{>j}); B(y) those with p_j = y that agree with v on the dimensions
//     corrected before j (p_{<j} = v_{<j}). ODROrder is ODR with the
//     dimensions corrected in its own order, so only "after" and "before"
//     change.
//   - UDR: the other dimensions split into S (already corrected: t = v ≠ s),
//     R (still to correct: s = v ≠ t) and Q (s = t = v), with the order
//     weight w = |S|!·|R|!/(|S|+|R|+1)! of routing's segment kernel. A_c
//     counts the p agreeing with v exactly on R ∪ Q, B_c those agreeing
//     exactly on S ∪ Q. Both come from the marginals
//     M_Y(x; v_Y) = #{p : p_j = x, p_Y = v_Y} by inclusion–exclusion.
//
// Each flow then costs one O(k) sweep per ring and direction: the load on
// edge z → z+1 is L[z] = L[z−1] + inject[z] − absorb[z], with inject and
// absorb read off sliding window sums. UDR's class weight is symmetric in
// S and R, so a ring's whole UDR flow is its own transpose and one sweep
// serves both directions. Weights are kept in integer units
// (d! for UDR, ×2 for the multi variants, whose ties put half on each arc)
// and divided once per edge at the end, so ODR loads are the integers the
// pair loop sums and UDR loads are the exact rational loads rounded once.

// ringFamily says how one of the five dimension-ordered routings splits
// into ring flows.
type ringFamily struct {
	ordered bool  // ODR: one class per ring; UDR: one per (S, R, Q)
	split   bool  // the multi variants: a tie puts half its mass on each arc
	order   []int // ODROrder's correction order; nil corrects in index order
}

// ringFamilyOf recognises the routings the ring-flow engine serves on a
// d-dimensional torus. An ODROrder whose Order is not a permutation of
// 0…d−1 panics with routing's message.
func ringFamilyOf(alg routing.Algorithm, d int) (ringFamily, bool) {
	switch a := alg.(type) {
	case routing.ODR:
		return ringFamily{ordered: true}, true
	case routing.ODROrder:
		return ringFamily{ordered: true, order: a.CorrectionOrder(d)}, true
	case routing.ODRMulti:
		return ringFamily{ordered: true, split: true}, true
	case routing.UDR:
		return ringFamily{}, true
	case routing.UDRMulti:
		return ringFamily{split: true}, true
	}
	return ringFamily{}, false
}

// rank is dimension x's place in the family's correction order.
func (f ringFamily) rank(x int) int {
	if f.order == nil {
		return x
	}
	return slices.Index(f.order, x)
}

// unit is the integer unit of a d-dimensional load: every pair's
// per-edge probability times unit is an integer.
func (f ringFamily) unit(d int) float64 {
	u := 1.0
	if !f.ordered {
		u = factorial(d)
	}
	if f.split {
		u *= 2
	}
	return u
}

// exact reports whether the ring-flow engine's integer sums stay exact for
// n processors on t: every scaled load stays below 2⁵³.
func (f ringFamily) exact(t *torus.Torus, n int) bool {
	return float64(n)*float64(n)*f.unit(t.D()) < 1<<53
}

// factorial returns n! as a float64, exact for n ≤ 18.
func factorial(n int) float64 {
	out := 1.0
	for i := 2; i <= n; i++ {
		out *= float64(i)
	}
	return out
}

// ringPass is what ring-flow's workers read: the engine state and the
// answer vector its rings write.
type ringPass struct {
	rf    *ringFlow
	loads []float64
}

// ringFlowResult is the ring-flow engine itself, for a routing of family
// fam whose scaled loads stay below 2⁵³. Rings write disjoint edges, so
// the workers stripe them straight into the one answer vector, and the
// result does not depend on the worker count.
func ringFlowResult(ctx context.Context, p *placement.Placement, alg routing.Algorithm, fam ringFamily, workers int, keep bool) Result {
	t := p.Torus()
	rings := t.D() * t.Nodes() / t.K()
	workers = effectiveWorkers(workers, rings)
	ws := getWorkspace()
	rf := ws.ringFlow(t, fam, workers)
	loads := ws.accumulators(1, t.Edges(), keep)[0]
	func() {
		_, psp := obs.Start(ctx, "load.pairs")
		defer psp.End()
		psp.SetAttrInt("rings", int64(rings))
		psp.SetAttrInt("classes", int64(fam.classes(t.D())))
		withEngineLabel(ctx, EngineRingFlow, func() {
			rf.marginals(p.Nodes())
			stripe(workers, rings, ringPass{rf, loads}, func(s ringPass, w, i int) { s.rf.ring(i, s.loads, &s.rf.scratch[w]) })
		})
	}()
	fpComputeMerge.InjectHard()
	_, msp := obs.Start(ctx, "load.merge")
	res := newResult(t, p, alg.Name(), loads)
	msp.End()
	res.Engine = EngineRingFlow
	if !keep {
		res.Loads = nil
	}
	ws.release()
	return res
}

// ringFlow is the ring-flow engine's state for one compute on T^d_k. It
// lives in the workspace; every slice only grows.
//
// For sweep dimension j the d−1 other dimensions are numbered by bit: bit
// b stands for dimension b when b < j and b+1 otherwise. A subset Y of
// them is a mask, and the marginal table (j, Y) holds M_Y(x; v_Y) at
// marg[off[j·2^{d−1}+Y] + proj_Y(v)·k + x], where proj_Y(v) reads v's
// coordinates on Y as base-k digits, lowest bit least significant.
type ringFlow struct {
	k, d  int
	fam   ringFamily
	masks int   // 2^{d−1}
	pow   []int // pow[i] = kⁱ
	// above[j] and below[j] are ODR's A mask (the dimensions corrected
	// after j) and B mask (those corrected before j) for sweep dimension j.
	above, below []int
	off          []int
	marg         []int64
	unit         float64
	// weight[s·d+r] is the UDR class weight in units: d!·s!·r!/(s+r+1)!.
	weight  []int64
	coords  []int // one processor's coordinates while building marginals
	digits  []int // the same on the other dimensions of one j
	proj    []int // their projection on every mask
	scratch []ringScratch
}

// ringScratch is one worker's buffers for the ring it is sweeping.
type ringScratch struct {
	digits []int   // the ring's coordinates on the other dimensions
	proj   []int   // the ring's projection on every mask
	n      []int64 // UDR's rows N_E, each doubled for the sweep
	tot    []int64 // tot[E] is the sum of row E of n
	b      []int64 // a class's B, summed over its R, doubled
	a2, b2 []int64 // ODR's A and B doubled for the sweep
	// The ring's flows in load units before their arc weights: the short
	// and the tied arcs' sums over its + edges (sp, tp) and, for ODR, its −
	// edges one node behind (sm, tm).
	sp, tp, sm, tm []int64
}

// ringFlow readies the workspace's ring-flow state for family fam on t
// with the given number of workers.
func (ws *workspace) ringFlow(t *torus.Torus, fam ringFamily, workers int) *ringFlow {
	rf := &ws.rf
	k, d := t.K(), t.D()
	rf.k, rf.d, rf.fam, rf.unit = k, d, fam, fam.unit(d)
	rf.pow = rf.pow[:0]
	for i, p := 0, 1; i <= d; i, p = i+1, p*k {
		rf.pow = append(rf.pow, p)
	}
	masks := 1 << (d - 1)
	rf.masks = masks
	rf.above, rf.below = rf.above[:0], rf.below[:0]
	for j := 0; j < d; j++ {
		above := 0
		for b := 0; b < d-1; b++ {
			if fam.rank(dim(b, j)) > fam.rank(j) {
				above |= 1 << b
			}
		}
		rf.above, rf.below = append(rf.above, above), append(rf.below, (masks-1)&^above)
	}
	rf.off = zeroed(rf.off, d*masks)
	rf.weight = rf.weight[:0]
	for s := 0; s < d; s++ {
		for r := 0; r < d; r++ {
			w := int64(0)
			if s+r < d {
				w = int64(factorial(d) / factorial(s+r+1) * factorial(s) * factorial(r))
			}
			rf.weight = append(rf.weight, w)
		}
	}
	rf.coords = zeroed(rf.coords, d)
	rf.digits = zeroed(rf.digits, d)
	rf.proj = zeroed(rf.proj, masks)
	rf.scratch = growScratch(rf.scratch, workers)
	rows := masks
	if fam.ordered {
		rows = 0
	}
	for w := range rf.scratch {
		sc := &rf.scratch[w]
		sc.digits = zeroed(sc.digits, d)
		sc.proj = zeroed(sc.proj, masks)
		sc.n = zeroed(sc.n, rows*2*k)
		sc.tot = zeroed(sc.tot, rows)
		sc.b = zeroed(sc.b, 2*k)
		sc.a2 = zeroed(sc.a2, 2*k)
		sc.b2 = zeroed(sc.b2, 2*k)
		sc.sp = zeroed(sc.sp, k)
		sc.tp = zeroed(sc.tp, k)
		sc.sm = zeroed(sc.sm, k)
		sc.tm = zeroed(sc.tm, k)
	}
	return rf
}

// classes is the number of rank-one classes per ring of a d-dimensional
// torus: one for ODR, one per (S, R, Q) split of the other d−1
// dimensions for UDR.
func (f ringFamily) classes(d int) float64 {
	if f.ordered {
		return 1
	}
	return math.Pow(3, float64(d-1))
}

// dim maps bit b of a mask to its dimension for sweep dimension j.
func dim(b, j int) int {
	if b < j {
		return b
	}
	return b + 1
}

// project fills proj[y] for every mask y < len(proj) from one point's
// coordinates on the other dimensions: the lowest bit of y is its least
// significant base-k digit.
func project(proj, digits []int, k int) {
	proj[0] = 0
	for y := 1; y < len(proj); y++ {
		proj[y] = digits[bits.TrailingZeros(uint(y))] + k*proj[y&(y-1)]
	}
}

// projectMask is project for one mask, with pow[i] = kⁱ.
func projectMask(y int, digits, pow []int) int {
	idx := 0
	for rank := 0; y != 0; rank, y = rank+1, y&(y-1) {
		idx += digits[bits.TrailingZeros(uint(y))] * pow[rank]
	}
	return idx
}

// marginals builds every sweep dimension's marginal tables from the
// processors in nodes: all 2^{d−1} masks for UDR, and for ODR the A and
// B masks alone (one shared table when d = 1, where both are empty).
func (rf *ringFlow) marginals(nodes []torus.Node) {
	k, d, masks := rf.k, rf.d, rf.masks
	size := 0
	table := func(j, y int) {
		rf.off[j*masks+y] = size
		size += k * rf.pow[bits.OnesCount(uint(y))]
	}
	for j := 0; j < d; j++ {
		if rf.fam.ordered {
			above, below := rf.above[j], rf.below[j]
			table(j, above)
			if below != above {
				table(j, below)
			}
			continue
		}
		for y := 0; y < masks; y++ {
			table(j, y)
		}
	}
	rf.marg = zeroed(rf.marg, size)
	coords, digits := rf.coords, rf.digits
	for _, u := range nodes {
		idx := int(u)
		for i := range coords {
			coords[i] = idx % k
			idx /= k
		}
		for j, x := range coords {
			for b := 0; b < d-1; b++ {
				digits[b] = coords[dim(b, j)]
			}
			if rf.fam.ordered {
				above, below := rf.above[j], rf.below[j]
				rf.marg[rf.off[j*masks+above]+projectMask(above, digits, rf.pow)*k+x]++
				if below != above {
					rf.marg[rf.off[j*masks+below]+projectMask(below, digits, rf.pow)*k+x]++
				}
				continue
			}
			project(rf.proj, digits, k)
			for y, pr := range rf.proj {
				rf.marg[rf.off[j*masks+y]+pr*k+x]++
			}
		}
	}
}

// row returns the k entries of table (j, y) for the point whose
// projection on y is proj.
func (rf *ringFlow) row(j, y, proj int) []int64 {
	at := rf.off[j*rf.masks+y] + proj*rf.k
	return rf.marg[at : at+rf.k]
}

// ring computes the loads of both directions' edges on ring i and writes
// them to loads. Ring i runs along dimension j = i / k^{d−1}, and its
// coordinates on the other dimensions are the base-k digits of
// i mod k^{d−1}.
func (rf *ringFlow) ring(i int, loads []float64, sc *ringScratch) {
	k, d := rf.k, rf.d
	j, r := i/rf.pow[d-1], i%rf.pow[d-1]
	base := 0
	for b, rest := 0, r; b < d-1; b, rest = b+1, rest/k {
		sc.digits[b] = rest % k
		base += sc.digits[b] * rf.pow[dim(b, j)]
	}
	clear(sc.sp)
	clear(sc.tp)
	sm, tm := sc.sm, sc.tm
	if rf.fam.ordered {
		clear(sm)
		clear(tm)
		above, below := rf.above[j], rf.below[j]
		a := rf.row(j, above, projectMask(above, sc.digits, rf.pow))
		b := rf.row(j, below, projectMask(below, sc.digits, rf.pow))
		rf.flow(a, b, sc)
	} else {
		// UDR's classes pair source and destination rows symmetrically,
		// so the ring's flow Σ A⊗B is its own transpose: its − arcs carry
		// what its + arcs do, and only the weights of the ties differ.
		rf.udrClasses(j, sc)
		sm, tm = sc.sp, sc.tp
	}
	// A tie goes wholly to the + arc, or half to each for the multi
	// variants, whose unit is doubled to keep that half whole. The − edge
	// at node z is sm[z−1], tm[z−1].
	wn, wtPlus, wtMinus := int64(1), int64(1), int64(0)
	if rf.fam.split {
		wn, wtMinus = 2, 1
	}
	td2, slot, prev := 2*d, 2*j, k-1
	for z := 0; z < k; z++ {
		e := (base+z*rf.pow[j])*td2 + slot
		loads[e] = float64(wn*sc.sp[z]+wtPlus*sc.tp[z]) / rf.unit
		loads[e+1] = float64(wn*sm[prev]+wtMinus*tm[prev]) / rf.unit
		prev = z
	}
}

// udrClasses sweeps every UDR class of the ring of dimension j whose
// digits sc holds. Row E of sc.n ends up counting, per x, the processors
// with p_j = x that agree with the ring exactly on the dimensions in E:
// the inclusion–exclusion N_E = Σ_{Y ⊇ E} (−1)^{|Y∖E|} M_Y, one dimension
// at a time. Class (S, R, Q) then has A = N_{R∪Q} and B = N_{S∪Q}; the
// classes sharing S share A, so their weighted B rows are summed into one
// sweep. Rows, and the summed B, hold their k entries twice over, as sweep
// reads them.
func (rf *ringFlow) udrClasses(j int, sc *ringScratch) {
	k, k2, full := rf.k, 2*rf.k, rf.masks-1
	project(sc.proj, sc.digits, k)
	n := sc.n
	for y := 0; y <= full; y++ {
		lo, hi := n[y*k2:][:k], n[y*k2+k:][:k]
		for x, c := range rf.row(j, y, sc.proj[y])[:k] {
			lo[x], hi[x] = c, c
		}
	}
	for b := 1; b <= full; b <<= 1 {
		for e := 0; e <= full; e++ {
			if e&b == 0 {
				dst, src := n[e*k2:][:k2], n[(e|b)*k2:][:k2]
				for x := range dst {
					dst[x] -= src[x]
				}
			}
		}
	}
	for e := 0; e <= full; e++ {
		sum := int64(0)
		for _, c := range n[e*k2:][:k] {
			sum += c
		}
		sc.tot[e] = sum
	}
	for s := 0; s <= full; s++ {
		ea := full ^ s
		if sc.tot[ea] == 0 {
			continue
		}
		weights := rf.weight[bits.OnesCount(uint(s))*rf.d:]
		b := sc.b[:k]
		clear(b)
		summed := false
		for r := ea; ; r = (r - 1) & ea {
			if eb := full ^ r; sc.tot[eb] != 0 {
				w := weights[bits.OnesCount(uint(r))]
				for x, c := range n[eb*k2:][:k] {
					b[x] += w * c
				}
				summed = true
			}
			if r == 0 {
				break
			}
		}
		if summed {
			copy(sc.b[k:], b)
			sweep(n[ea*k2:][:k2], sc.b, sc.sp, sc.tp)
		}
	}
}

// flow adds ODR's rank-one flow a⊗b, one entry per node, to the ring's
// sums in both directions. A − arc x → y passes the − edge z+1 → z exactly
// when the + arc y → x passes z → z+1, so the − sums are the + sweep of
// b⊗a.
func (rf *ringFlow) flow(a, b []int64, sc *ringScratch) {
	k := rf.k
	a2, b2 := sc.a2[:2*k], sc.b2[:2*k]
	for x, v := range a[:k] {
		a2[x], a2[x+k] = v, v
	}
	for x, v := range b[:k] {
		b2[x], b2[x+k] = v, v
	}
	sweep(a2, b2, sc.sp, sc.tp)
	sweep(b2, a2, sc.sm, sc.tm)
}

// sweep adds the flow a⊗b on the + edge z → z+1 of a ring of k = len(short)
// nodes to short[z], over the (x, y) whose + arc x → y is shorter than k/2
// and passes the edge, and to tied[z] over those whose arc is exactly k/2
// long. a and b hold their k entries twice over, and every index below is
// z+c for a constant c in [0, k]: each operand is read through a k-long
// window of a or b starting at c, so the loop carries no bounds checks.
func sweep(a, b, short, tied []int64) {
	k := len(short)
	h := (k - 1) / 2 // arcs of length 1..h are shorter than k/2
	half := 0        // the tied arc length, when k is even
	if k%2 == 0 {
		half = k / 2
	}
	aZ, bZ := a[:k], b[:k]
	bH := b[h:][:k]
	aP, aPH, aW := a[k-1:][:k], a[k-1-h:][:k], a[k-h:][:k]
	bT, aTB := b[half:][:k], a[k-half:][:k]
	tied = tied[:k]
	// Edge 0 → 1 carries the arcs that start δ ≥ 0 steps before node 0 and
	// are longer than δ. winB and winA are the window sums of b after and
	// of a before node 0.
	var winB, winA, sum, tie int64
	for u := 1; u <= h; u++ {
		winB += bZ[u]
		sum += aW[u] * winB
		winA += aW[h-u]
	}
	for u := 1; u <= half; u++ {
		tie += aTB[u] * bZ[u]
	}
	short[0] += sum
	tied[0] += tie
	for z := 1; z < k; z++ {
		winB += bH[z] - bZ[z]
		winA += aP[z] - aPH[z]
		sum += aZ[z]*winB - bZ[z]*winA
		if half > 0 {
			tie += aZ[z]*bT[z] - bZ[z]*aTB[z]
		}
		short[z] += sum
		tied[z] += tie
	}
}

// growScratch returns bufs resized to n, keeping every scratch it holds.
func growScratch(bufs []ringScratch, n int) []ringScratch {
	if cap(bufs) < n {
		bufs = append(bufs[:cap(bufs)], make([]ringScratch, n-cap(bufs))...)
	}
	return bufs[:n]
}
