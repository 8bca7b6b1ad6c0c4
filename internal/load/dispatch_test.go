package load

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// dispatchCell is one input of the dispatch grid.
type dispatchCell struct {
	t    *torus.Torus
	spec placement.Spec
	alg  routing.Algorithm
}

// dispatchGrid is T²₈…T²₃₂, T³₆…T³₁₆ and T⁴₄, T⁴₆ with linear, multi:2 and
// multi:3 placements under the four routings ring-flow serves, plus FAR
// wherever its pair loop stays under a second (d = 2, and T³₆, T³₈).
func dispatchGrid() []dispatchCell {
	var cells []dispatchCell
	for _, kd := range [][2]int{{8, 2}, {12, 2}, {16, 2}, {24, 2}, {32, 2}, {6, 3}, {8, 3}, {10, 3}, {12, 3}, {16, 3}, {4, 4}, {6, 4}} {
		tr := torus.New(kd[0], kd[1])
		algs := append([]routing.Algorithm(nil), ringAlgs...)
		if kd[1] == 2 || kd[1] == 3 && kd[0] <= 8 {
			algs = append(algs, routing.FAR{})
		}
		for _, spec := range []placement.Spec{placement.Linear{}, placement.MultipleLinear{T: 2}, placement.MultipleLinear{T: 3}} {
			for _, alg := range algs {
				cells = append(cells, dispatchCell{tr, spec, alg})
			}
		}
	}
	return cells
}

// engineRun is one applicable engine of a cell: how to run it and what the
// cost model predicts for it.
type engineRun struct {
	name string
	ns   float64
	run  func()
	best time.Duration
}

// applicableEngines lists every engine that can answer p under alg: the
// candidates compute weighs, and the symmetry engine wherever it is sound
// even though compute does not weigh it there (ODR and UDR, which
// ring-flow serves), so the table shows what that gives up. Each runs the
// way EMaxCtx runs it with one worker.
func applicableEngines(p *placement.Placement, alg routing.Algorithm) []*engineRun {
	ctx := context.Background()
	t, n, order := p.Torus(), p.Size(), p.GroupOrder()
	cands := priced(nil, alg, t, n, order, FastPathAuto)
	if routing.IsTranslationEquivariant(alg) && order > 1 && !slices.ContainsFunc(cands, func(c plan) bool { return c.engine == EngineSymmetry }) {
		cands = append(cands, plan{engine: EngineSymmetry, ns: symmetryCost(alg, t, n, n/order)})
	}
	var engines []*engineRun
	for _, c := range cands {
		e := &engineRun{name: c.engine, ns: c.ns}
		switch c.engine {
		case EngineGeneric:
			e.run = func() { computeGeneric(ctx, p, alg, 1, false) }
		case EngineRingFlow:
			e.run = func() { ringFlowResult(ctx, p, alg, c.fam, 1, false) }
		case EngineSymmetry:
			e.run = func() { computeSymmetry(ctx, p, alg, false) }
		}
		engines = append(engines, e)
	}
	return engines
}

// BenchmarkDispatchTable times every applicable engine, one worker, on each
// cell of dispatchGrid and logs the engine compute chooses next to the
// fastest one measured, with every engine's measured and predicted time.
// An engine's time is its best of seven rounds, each the mean of as many
// calls as fill a millisecond. A round times every cell of the grid in turn, so one cell's
// rounds are seconds apart and a burst of load from elsewhere on the host
// spoils at most one of them; an engine over 10× its cell's fastest after
// the first round is not run again. It reports the worst ratio of the
// chosen engine's time to the fastest over every cell as
// worst-chosen/fastest, and each engine's median measured/predicted ratio.
// Run it with
//
//	go test ./internal/load -run '^$' -bench DispatchTable -benchtime 1x -v
func BenchmarkDispatchTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid := dispatchGrid()
		placements := make([]*placement.Placement, len(grid))
		engines := make([][]*engineRun, len(grid))
		for ci, c := range grid {
			placements[ci] = mustBuildB(b, c.spec, c.t)
			engines[ci] = applicableEngines(placements[ci], c.alg)
			for _, e := range engines[ci] {
				e.best = timePerRun(e.run)
			}
		}
		for round := 1; round < 7; round++ {
			for _, cell := range engines {
				fastest := slices.MinFunc(cell, byBest).best
				for _, e := range cell {
					if e.best <= 10*fastest {
						e.best = min(e.best, timePerRun(e.run))
					}
				}
			}
		}

		var out strings.Builder
		fmt.Fprintf(&out, "%-6s %-26s %-9s %-9s %-9s %6s  %s\n", "torus", "placement", "routing", "chosen", "fastest", "ratio", "engine measured/predicted µs")
		worst := 1.0
		calib := map[string][]float64{}
		for ci, c := range grid {
			p := placements[ci]
			chosen := choose(p, c.alg, FastPathAuto).engine
			fastest := slices.MinFunc(engines[ci], byBest)
			var chosenBest time.Duration
			var detail []string
			for _, e := range engines[ci] {
				if e.name == chosen {
					chosenBest = e.best
				}
				calib[e.name] = append(calib[e.name], float64(e.best.Nanoseconds())/e.ns)
				detail = append(detail, fmt.Sprintf("%s %.1f/%.1f", e.name, float64(e.best.Nanoseconds())/1e3, e.ns/1e3))
			}
			ratio := float64(chosenBest) / float64(fastest.best)
			worst = math.Max(worst, ratio)
			fmt.Fprintf(&out, "T^%d_%-2d %-26s %-9s %-9s %-9s %6.2f  %s\n", c.t.D(), c.t.K(), p.Name(), c.alg.Name(),
				chosen, fastest.name, ratio, strings.Join(detail, ", "))
		}
		for _, name := range []string{EngineGeneric, EngineSymmetry, EngineRingFlow} {
			r := calib[name]
			slices.Sort(r)
			fmt.Fprintf(&out, "%s: median measured/predicted %.2f over %d cells\n", name, r[len(r)/2], len(r))
			b.ReportMetric(r[len(r)/2], name+"-measured/predicted")
		}
		b.Log("\n" + out.String())
		b.ReportMetric(worst, "worst-chosen/fastest")
	}
}

// timePerRun is run's mean time over as many calls as fill a millisecond,
// so a microsecond-scale engine is not timed by one call alone.
func timePerRun(run func()) time.Duration {
	start := time.Now()
	for calls := 1; ; calls++ {
		run()
		if el := time.Since(start); el >= time.Millisecond {
			return el / time.Duration(calls)
		}
	}
}

// byBest orders engines by their best time.
func byBest(x, y *engineRun) int { return cmp.Compare(x.best, y.best) }

func mustBuildB(b *testing.B, s placement.Spec, tr *torus.Torus) *placement.Placement {
	b.Helper()
	p, err := s.Build(tr)
	if err != nil {
		b.Fatalf("%s on %s: %v", s.Name(), tr, err)
	}
	return p
}

// TestCostBoundsChosenEngine pins Cost as the price of what compute runs,
// known without the placement: for every cell and mode, Cost is the price
// of the engine compute chooses. Random placements record no group;
// linear and multi-linear ones give symmetry its chances.
func TestCostBoundsChosenEngine(t *testing.T) {
	cells := dispatchGrid()
	for _, kd := range [][2]int{{3, 2}, {4, 2}, {8, 2}, {16, 2}, {4, 3}, {8, 3}, {12, 3}, {4, 4}} {
		tr := torus.New(kd[0], kd[1])
		for _, n := range []int{0, 1, 2, tr.Nodes() / 8, tr.Nodes() / 2, tr.Nodes()} {
			for _, alg := range append([]routing.Algorithm{routing.FAR{}}, ringAlgs...) {
				cells = append(cells, dispatchCell{tr, placement.Random{Count: n, Seed: int64(n)}, alg})
			}
		}
		for _, spec := range []placement.Spec{placement.LayerCluster{Dim: 0}, placement.Full{}, placement.MultipleLinear{T: kd[0]}} {
			cells = append(cells, dispatchCell{tr, spec, routing.FAR{}})
		}
	}
	for _, c := range cells {
		p, err := c.spec.Build(c.t)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []FastPathMode{FastPathAuto, FastPathOff} {
			cost, err := Cost(c.alg, c.t, c.spec, mode)
			if err != nil {
				t.Fatal(err)
			}
			if chosen := choose(p, c.alg, mode); chosen.ns != cost {
				t.Errorf("%s %s %s mode %d: compute runs %s at %.0f ns, Cost %.0f ns", c.t, p.Name(), c.alg.Name(), mode, chosen.engine, chosen.ns, cost)
			}
		}
	}
}

// TestCostPricesSpecGroup pins Cost, for FAR on specs whose builder
// records a group (the linear family and the layer cluster), at the
// price of the engine Predict chooses for the built placement: the spec's
// own group prices the symmetry engine, so no FAR key on such a spec is
// priced at the pair loop it does not run.
func TestCostPricesSpecGroup(t *testing.T) {
	for _, c := range []struct {
		k, d int
		spec placement.Spec
	}{
		{16, 2, placement.Linear{}},
		{6, 3, placement.Linear{}},
		{12, 2, placement.MultipleLinear{T: 3}},
		{8, 3, placement.LayerCluster{Dim: 2}},
	} {
		tr := torus.New(c.k, c.d)
		p := mustBuild(t, c.spec, tr)
		chosen, preds := Predict(p, routing.FAR{})
		cost, err := Cost(routing.FAR{}, tr, c.spec, FastPathAuto)
		if err != nil {
			t.Fatal(err)
		}
		if chosen != EngineSymmetry {
			t.Errorf("%s on %s under FAR: Predict chooses %s, want %s", p.Name(), tr, chosen, EngineSymmetry)
		}
		for _, pr := range preds {
			if pr.Engine == chosen && math.Abs(pr.Micros*1e3-cost) > 1e-9*cost {
				t.Errorf("%s on %s under FAR: Cost %.0f ns, Predict prices %s at %.0f ns", p.Name(), tr, cost, chosen, pr.Micros*1e3)
			}
		}
	}
}
