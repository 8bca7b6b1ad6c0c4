// Package core ties the substrates together into the paper's top-level
// question: is a given (placement, routing algorithm) pair optimal — does
// it achieve maximum load linear in |P| with |P| = Θ(k^{d−1}) processors?
//
// Analyze runs the exact load engine, evaluates every lower bound the paper
// provides (Eq. 1, Lemma 1 via the bisection constructions, the §4 improved
// bound), constructs Theorem 1 and sweep bisections, and reports the
// optimality ratio E_max / bestLowerBound.
package core

import (
	"context"
	"fmt"
	"strings"

	"torusnet/internal/bisect"
	"torusnet/internal/bounds"
	"torusnet/internal/load"
	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
)

// Report is the complete analysis of one placement + routing algorithm.
type Report struct {
	Placement *placement.Placement
	Algorithm string

	// Load results (Definition 4): E_max, its busiest edge and Σ E(l).
	// Load.Loads is nil; per-edge loads come from load.Compute.
	Load load.Result

	// Lower bounds on E_max and the bisections behind them.
	Bounds

	// OptimalityRatio is E_max divided by the best available lower bound;
	// a bounded ratio as k grows certifies the placement optimal in the
	// paper's sense.
	OptimalityRatio float64
	// LoadPerProcessor is E_max / |P|, the linearity constant c1.
	LoadPerProcessor float64
}

// Bounds is the half of an analysis that needs no load run: the paper's
// lower bounds on E_max for one placement and the two bisections they
// come from.
type Bounds struct {
	BlaumBound     float64 // Eq. 1: (|P|−1)/2d
	BisectionBound float64 // Eq. 8 using the sweep cut width, or a balanced dimension cut's
	ImprovedBound  float64 // §4: c²k^{d−1}/8 (uniform placements only, else 0)

	// Bisection data.
	SweepCut     bisect.Cut
	DimensionCut bisect.Cut

	// Density constant c with |P| = c·k^{d−1}.
	DensityC float64
	// Uniform reports placement uniformity (premise of Theorem 1 and §4).
	Uniform bool
}

// EvaluateBounds computes every lower bound the paper gives for p. The
// sweep cut reads the torus shape's cached sweep table and the dimension
// cut is Theorem 1's closed form, so the cost is O(d·|P|) plus the
// uniformity check.
func EvaluateBounds(p *placement.Placement) Bounds {
	t := p.Torus()
	b := Bounds{
		BlaumBound:   bounds.Blaum(p.Size(), t.D()),
		Uniform:      p.IsUniform(),
		DensityC:     float64(p.Size()) / float64(t.Nodes()/t.K()),
		SweepCut:     *bisect.Sweep(p),
		DimensionCut: *bisect.BestDimensionCut(p),
	}
	b.BisectionBound = bounds.Bisection(p.Size(), b.SweepCut.Width())
	if b.DimensionCut.Balanced() {
		if w := bounds.Bisection(p.Size(), b.DimensionCut.Width()); w > b.BisectionBound {
			b.BisectionBound = w
		}
	}
	if b.Uniform {
		b.ImprovedBound = bounds.Improved(b.DensityC, t.K(), t.D())
	}
	return b
}

// Analyze runs the full pipeline. Workers configures the load engine,
// which runs the engine its cost model predicts cheapest.
func Analyze(p *placement.Placement, alg routing.Algorithm, workers int) *Report {
	return AnalyzeCtx(context.Background(), p, alg, load.Options{Workers: workers})
}

// AnalyzeCtx runs the full pipeline with explicit load-engine options
// (worker count, fast-path mode, cross-check) and observability threaded
// through ctx: the load engine records its engine-stage spans under any
// active trace, and the bound/bisection evaluation gets its own span. With
// no active trace the instrumentation is inert.
//
// AnalyzeCtx is an inlinable wrapper around a pipeline that returns the
// Report by value, so a caller that reads the report and drops it (the
// analysis service, which keeps only its wire answer) keeps it off the
// heap.
func AnalyzeCtx(ctx context.Context, p *placement.Placement, alg routing.Algorithm, opts load.Options) *Report {
	rep := analyze(ctx, p, alg, opts)
	return &rep
}

func analyze(ctx context.Context, p *placement.Placement, alg routing.Algorithm, opts load.Options) Report {
	ctx, sp := obs.Start(ctx, "core.analyze")
	defer sp.End()
	sp.SetAttr("algorithm", alg.Name())
	rep := Report{
		Placement: p,
		Algorithm: alg.Name(),
		Load:      *load.EMaxCtx(ctx, p, alg, opts),
	}
	_, bsp := obs.Start(ctx, "core.bounds")
	rep.Bounds = EvaluateBounds(p)
	bsp.End()

	best := rep.BestLowerBound()
	if best > 0 {
		rep.OptimalityRatio = rep.Load.Max / best
	}
	if p.Size() > 0 {
		rep.LoadPerProcessor = rep.Load.Max / float64(p.Size())
	}
	return rep
}

// BestLowerBound returns the strongest of the evaluated lower bounds.
func (b Bounds) BestLowerBound() float64 {
	best := b.BlaumBound
	if b.BisectionBound > best {
		best = b.BisectionBound
	}
	if b.ImprovedBound > best {
		best = b.ImprovedBound
	}
	return best
}

// String renders a human-readable report.
func (r *Report) String() string {
	var sb strings.Builder
	t := r.Placement.Torus()
	fmt.Fprintf(&sb, "placement %s under %s\n", r.Placement, r.Algorithm)
	fmt.Fprintf(&sb, "  |P| = %d = %.3f·k^%d, uniform=%v\n", r.Placement.Size(), r.DensityC, t.D()-1, r.Uniform)
	fmt.Fprintf(&sb, "  E_max = %.4f (%.4f per processor) at %s\n",
		r.Load.Max, r.LoadPerProcessor, t.EdgeString(r.Load.MaxEdge))
	fmt.Fprintf(&sb, "  bounds: Blaum=%.4f bisection=%.4f improved=%.4f\n",
		r.BlaumBound, r.BisectionBound, r.ImprovedBound)
	fmt.Fprintf(&sb, "  cuts: sweep width=%d (%d|%d), dimension width=%d (%d|%d)\n",
		r.SweepCut.Width(), r.SweepCut.ProcsA, r.SweepCut.ProcsB,
		r.DimensionCut.Width(), r.DimensionCut.ProcsA, r.DimensionCut.ProcsB)
	fmt.Fprintf(&sb, "  optimality ratio = %.4f\n", r.OptimalityRatio)
	return sb.String()
}
