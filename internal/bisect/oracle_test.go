package bisect

import (
	"fmt"
	"reflect"
	"testing"

	"torusnet/internal/bounds"
	"torusnet/internal/placement"
	"torusnet/internal/torus"
)

// The constructions below are the full-recount forms the sweep table and
// the Theorem 1 closed form replaced. Each sorts every node by big.Int key
// or marks every node, then recounts every edge through finalize; they
// stay as the oracle the fast forms are checked against.

// sweepOracle walks the sweep order until half the processors are on
// side A and stops right after the target processor.
func sweepOracle(p *placement.Placement) *Cut {
	t := p.Torus()
	order := sortedBySweepKey(t)
	sideA := make([]bool, t.Nodes())
	target := p.Size() / 2
	got := 0
	for idx := 0; idx < len(order) && got < target; idx++ {
		u := order[idx]
		sideA[u] = true
		if p.Contains(u) {
			got++
		}
	}
	return finalize(t, p, sideA, "sweep")
}

// bestSweepOracle advances the threshold node by node, keeping the width
// incrementally, and takes the first minimum over the balanced window.
func bestSweepOracle(p *placement.Placement) *Cut {
	t := p.Torus()
	order := sortedBySweepKey(t)
	target := p.Size() / 2
	inA := make([]bool, t.Nodes())
	width, procs := 0, 0
	advance := func(u torus.Node) {
		for j := 0; j < t.D(); j++ {
			for _, dir := range []torus.Direction{torus.Plus, torus.Minus} {
				if inA[t.Step(u, j, dir)] {
					width -= 2
				} else {
					width += 2
				}
			}
		}
		inA[u] = true
		if p.Contains(u) {
			procs++
		}
	}
	idx := 0
	for ; idx < len(order) && procs < target; idx++ {
		advance(order[idx])
	}
	bestWidth, bestIdx := width, idx
	for j := idx; j < len(order) && !p.Contains(order[j]); j++ {
		advance(order[j])
		if width < bestWidth {
			bestWidth, bestIdx = width, j+1
		}
	}
	if bestIdx == 0 {
		bestIdx = 1
	}
	if bestIdx == len(order) {
		bestIdx = len(order) - 1
	}
	return prefixCutOracle(p, order, bestIdx, "best-sweep")
}

// prefixCutOracle is the cut whose A side is the first n nodes of order.
func prefixCutOracle(p *placement.Placement, order []torus.Node, n int, method string) *Cut {
	sideA := make([]bool, p.Torus().Nodes())
	for _, u := range order[:n] {
		sideA[u] = true
	}
	return finalize(p.Torus(), p, sideA, method)
}

// dimensionCutOracle marks the subtori with values 1 .. k/2 along dim.
func dimensionCutOracle(p *placement.Placement, dim int) *Cut {
	t := p.Torus()
	sideA := make([]bool, t.Nodes())
	for v := 1; v <= t.K()/2; v++ {
		t.ForEachSubtorusNode(torus.Subtorus{Dim: dim, Value: v}, func(u torus.Node) {
			sideA[u] = true
		})
	}
	return finalize(t, p, sideA, fmt.Sprintf("dimension(%d)", dim))
}

// bestDimensionCutOracle keeps the most balanced dimension cut, ties to
// the smaller width, then the lower dimension.
func bestDimensionCutOracle(p *placement.Placement) *Cut {
	var best *Cut
	for dim := 0; dim < p.Torus().D(); dim++ {
		c := dimensionCutOracle(p, dim)
		if best == nil {
			best = c
			continue
		}
		da, db := abs(c.ProcsA-c.ProcsB), abs(best.ProcsA-best.ProcsB)
		if da < db || (da == db && c.Width() < best.Width()) {
			best = c
		}
	}
	return best
}

// oracleEdges lists the crossing edges of a side mask.
func oracleEdges(t *torus.Torus, sideA []bool) []torus.Edge {
	edges := []torus.Edge{}
	t.ForEachEdge(func(e torus.Edge) {
		if sideA[t.EdgeSource(e)] != sideA[t.EdgeTarget(e)] {
			edges = append(edges, e)
		}
	})
	return edges
}

// sameCut reports how got differs from the oracle want, or "".
func sameCut(got, want *Cut) string {
	switch {
	case got.Method != want.Method:
		return "method " + got.Method + " != " + want.Method
	case got.Width() != want.Width():
		return "width"
	case got.ProcsA != want.ProcsA || got.ProcsB != want.ProcsB:
		return "processor split"
	case !reflect.DeepEqual(got.SideA(), want.side):
		return "side A"
	case !reflect.DeepEqual(got.Edges(), oracleEdges(got.Torus, want.side)):
		return "edge set"
	}
	return ""
}

// checkCuts asserts every fast construction equals its oracle on p.
func checkCuts(t *testing.T, p *placement.Placement) {
	t.Helper()
	tr := p.Torus()
	sw := Sweep(p)
	if diff := sameCut(sw, sweepOracle(p)); diff != "" {
		t.Fatalf("%s: Sweep differs from the oracle in %s", p, diff)
	}
	if sw.Width() > SweepCeiling(tr) {
		t.Fatalf("%s: sweep width %d above the Corollary 1 ceiling %d", p, sw.Width(), SweepCeiling(tr))
	}
	if diff := sameCut(BestSweep(p), bestSweepOracle(p)); diff != "" {
		t.Fatalf("%s: BestSweep differs from the oracle in %s", p, diff)
	}
	for dim := 0; dim < tr.D(); dim++ {
		c := DimensionCut(p, dim)
		if diff := sameCut(c, dimensionCutOracle(p, dim)); diff != "" {
			t.Fatalf("%s: DimensionCut(%d) differs from the oracle in %s", p, dim, diff)
		}
		if float64(c.Width()) != bounds.Theorem1Width(tr.K(), tr.D()) {
			t.Fatalf("%s: dimension width %d, Theorem 1 says %v", p, c.Width(), bounds.Theorem1Width(tr.K(), tr.D()))
		}
	}
	if diff := sameCut(BestDimensionCut(p), bestDimensionCutOracle(p)); diff != "" {
		t.Fatalf("%s: BestDimensionCut differs from the oracle in %s", p, diff)
	}
}

// FuzzCuts checks Sweep, BestSweep and the dimension cuts against their
// full-recount oracles on random small tori, k ∈ 2..8 (parallel links at
// k = 2 and 3 included) and d ∈ 1..4, under random, linear and full
// placements.
func FuzzCuts(f *testing.F) {
	for k := uint8(0); k < 7; k++ {
		for d := uint8(0); d < 4; d++ {
			for kind := uint8(0); kind < 3; kind++ {
				f.Add(k, d, kind, uint16(k)*7+uint16(d), int64(k)*31+int64(d))
			}
		}
	}
	f.Fuzz(func(t *testing.T, kRaw, dRaw, kind uint8, count uint16, seed int64) {
		tr := torus.New(2+int(kRaw%7), 1+int(dRaw%4))
		var spec placement.Spec
		switch kind % 3 {
		case 0:
			spec = placement.Random{Count: int(count) % (tr.Nodes() + 1), Seed: seed}
		case 1:
			spec = placement.Linear{C: int(count)}
		default:
			spec = placement.Full{}
		}
		p, err := spec.Build(tr)
		if err != nil {
			t.Fatalf("build %s on %s: %v", spec.Name(), tr, err)
		}
		checkCuts(t, p)
	})
}
