package load

import (
	"context"
	"math"
	"math/bits"

	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// The ring-flow engine: exact ODR and UDR loads from per-ring marginals.
//
// Fix the dimension-j edge at node v. Under the four dimension-ordered
// routings a pair (s, t) crosses it only if s and t meet per-coordinate
// conditions against v on the other d−1 dimensions and v_j lies on the
// pair's arc from s_j to t_j. On the ring through v along j the load is
// therefore a sum of rank-one flows Σ_c w_c Σ_{x,y} A_c(x)·B_c(y)·[arc x→y
// passes the edge], one per class c of those conditions:
//
//   - ODR: one class with w = 1. A(x) counts the processors p with p_j = x
//     and p_{>j} = v_{>j}; B(y) those with p_j = y and p_{<j} = v_{<j}.
//   - UDR: the other dimensions split into S (already corrected: t = v ≠ s),
//     R (still to correct: s = v ≠ t) and Q (s = t = v), with the order
//     weight w = |S|!·|R|!/(|S|+|R|+1)! of routing's segment kernel. A_c
//     counts the p agreeing with v exactly on R ∪ Q, B_c those agreeing
//     exactly on S ∪ Q. Both come from the marginals
//     M_Y(x; v_Y) = #{p : p_j = x, p_Y = v_Y} by inclusion–exclusion.
//
// Each flow then costs one O(k) sweep per ring and direction: the load on
// edge z → z+1 is L[z] = L[z−1] + inject[z] − absorb[z], with inject and
// absorb read off sliding window sums. Weights are kept in integer units
// (d! for UDR, ×2 for the multi variants, whose ties put half on each arc)
// and divided once per edge at the end, so ODR loads are the integers the
// pair loop sums and UDR loads are ComputeExact's rationals rounded once.

// ringFamily says how one of the four dimension-ordered routings splits
// into ring flows.
type ringFamily struct {
	ordered bool // ODR: one class per ring; UDR: one per (S, R, Q)
	split   bool // the multi variants: a tie puts half its mass on each arc
}

// ringFamilyOf recognises the routings the ring-flow engine serves.
func ringFamilyOf(alg routing.Algorithm) (ringFamily, bool) {
	switch alg.(type) {
	case routing.ODR:
		return ringFamily{ordered: true}, true
	case routing.ODRMulti:
		return ringFamily{ordered: true, split: true}, true
	case routing.UDR:
		return ringFamily{}, true
	case routing.UDRMulti:
		return ringFamily{split: true}, true
	}
	return ringFamily{}, false
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
	// above[j] and below[j] are ODR's A mask (the dimensions above j) and
	// B mask (those below j) for sweep dimension j.
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
	digits []int // the ring's coordinates on the other dimensions
	proj   []int // the ring's projection on every mask
	n      []int64
	tot    []int64 // tot[E] is the sum of row E of n
	b      []int64 // a class's B, summed over its R
	a2, b2 []int64 // A and B doubled (or reversed and doubled) for the sweep
	lp, lm []int64 // the ring's loads: + edges, and − edges in reversed order
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
		below := 1<<j - 1
		rf.above, rf.below = append(rf.above, (masks-1)&^below), append(rf.below, below)
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
		sc.n = zeroed(sc.n, rows*k)
		sc.tot = zeroed(sc.tot, rows)
		sc.b = zeroed(sc.b, k)
		sc.a2 = zeroed(sc.a2, 2*k)
		sc.b2 = zeroed(sc.b2, 2*k)
		sc.lp = zeroed(sc.lp, k)
		sc.lm = zeroed(sc.lm, k)
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
	clear(sc.lp)
	clear(sc.lm)
	if rf.fam.ordered {
		above, below := rf.above[j], rf.below[j]
		a := rf.row(j, above, projectMask(above, sc.digits, rf.pow))
		b := rf.row(j, below, projectMask(below, sc.digits, rf.pow))
		rf.flow(a, b, sc)
	} else {
		rf.udrClasses(j, sc)
	}
	// The − edge at node z is at z′ = −z on the reversed ring of sc.lm.
	td2, slot, rev := 2*d, 2*j, 0
	for z := 0; z < k; z++ {
		e := (base+z*rf.pow[j])*td2 + slot
		loads[e] = float64(sc.lp[z]) / rf.unit
		loads[e+1] = float64(sc.lm[rev]) / rf.unit
		rev = k - z - 1
	}
}

// udrClasses sweeps every UDR class of the ring of dimension j whose
// digits sc holds. Row E of sc.n ends up counting, per x, the processors
// with p_j = x that agree with the ring exactly on the dimensions in E:
// the inclusion–exclusion N_E = Σ_{Y ⊇ E} (−1)^{|Y∖E|} M_Y, one dimension
// at a time. Class (S, R, Q) then has A = N_{R∪Q} and B = N_{S∪Q}; the
// classes sharing S share A, so their weighted B rows are summed into one
// sweep.
func (rf *ringFlow) udrClasses(j int, sc *ringScratch) {
	k, full := rf.k, rf.masks-1
	project(sc.proj, sc.digits, k)
	n := sc.n
	for y := 0; y <= full; y++ {
		copy(n[y*k:(y+1)*k], rf.row(j, y, sc.proj[y]))
	}
	for b := 1; b <= full; b <<= 1 {
		for e := 0; e <= full; e++ {
			if e&b == 0 {
				dst, src := n[e*k:][:k], n[(e|b)*k:][:k]
				for x := range dst {
					dst[x] -= src[x]
				}
			}
		}
	}
	for e := 0; e <= full; e++ {
		sum := int64(0)
		for _, c := range n[e*k : (e+1)*k] {
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
		clear(sc.b)
		summed := false
		for r := ea; ; r = (r - 1) & ea {
			if eb := full ^ r; sc.tot[eb] != 0 {
				w := weights[bits.OnesCount(uint(r))]
				for x, c := range n[eb*k : (eb+1)*k] {
					sc.b[x] += w * c
				}
				summed = true
			}
			if r == 0 {
				break
			}
		}
		if summed {
			rf.flow(n[ea*k:(ea+1)*k], sc.b, sc)
		}
	}
}

// flow adds the rank-one flow a⊗b to the ring's loads in both directions:
// the + arcs onto sc.lp, and the − arcs, swept on the reversed ring, onto
// sc.lm. A tie goes wholly to the + arc, or half to each for the multi
// variants, whose unit is doubled to keep that half whole.
func (rf *ringFlow) flow(a, b []int64, sc *ringScratch) {
	k := rf.k
	wn, wtPlus, wtMinus := int64(1), int64(1), int64(0)
	if rf.fam.split {
		wn, wtMinus = 2, 1
	}
	copy(sc.a2, a)
	copy(sc.a2[k:], a)
	copy(sc.b2, b)
	copy(sc.b2[k:], b)
	sweep(sc.a2, sc.b2, sc.lp, wn, wtPlus)
	sc.a2[0], sc.a2[k], sc.b2[0], sc.b2[k] = a[0], a[0], b[0], b[0]
	for i := 1; i < k; i++ {
		sc.a2[i], sc.a2[k+i] = a[k-i], a[k-i]
		sc.b2[i], sc.b2[k+i] = b[k-i], b[k-i]
	}
	sweep(sc.a2, sc.b2, sc.lm, wn, wtMinus)
}

// sweep adds to l[z] the load the flow a⊗b puts on the edge z → z+1 of a
// ring of k = len(l) nodes: each (x, y) whose + arc x → y passes that edge
// adds a[x]·b[y]·wn if the arc is shorter than k/2, and a[x]·b[y]·wt if it
// is exactly k/2 long. a and b hold their k entries twice over, so every
// index below stays in [0, 2k) without a modulus.
func sweep(a, b, l []int64, wn, wt int64) {
	k := len(l)
	h := (k - 1) / 2 // arcs of length 1..h are shorter than k/2
	half := 0        // the tied arc length, when it carries weight
	if k%2 == 0 && wt != 0 {
		half = k / 2
	}
	// Edge 0 → 1 carries the arcs that start δ ≥ 0 steps before node 0 and
	// are longer than δ. winB and winA are the window sums of b after and
	// of a before node 0.
	var winB, winA, short, tied int64
	for u := 1; u <= h; u++ {
		winB += b[u]
		short += a[u-h+k] * winB
		winA += a[k-u]
	}
	for u := 1; u <= half; u++ {
		tied += a[u-half+k] * b[u]
	}
	load := wn*short + wt*tied
	l[0] += load
	for z := 1; z < k; z++ {
		winB += b[z+h] - b[z]
		winA += a[z-1] - a[z-1-h+k]
		inject, absorb := wn*winB, wn*winA
		if half > 0 {
			inject += wt * b[z+half]
			absorb += wt * a[z-half+k]
		}
		load += a[z]*inject - b[z]*absorb
		l[z] += load
	}
}

// growScratch returns bufs resized to n, keeping every scratch it holds.
func growScratch(bufs []ringScratch, n int) []ringScratch {
	if cap(bufs) < n {
		bufs = append(bufs[:cap(bufs)], make([]ringScratch, n-cap(bufs))...)
	}
	return bufs[:n]
}
