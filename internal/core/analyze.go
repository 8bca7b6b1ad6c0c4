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
	"torusnet/internal/torus"
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
	ClosedForms

	// Bisection data.
	SweepCut     bisect.Cut
	DimensionCut bisect.Cut

	// Uniform reports placement uniformity (premise of Theorem 1 and §4).
	Uniform bool
}

// ClosedForms are the paper's closed-form lower bounds on E_max for one
// placement, and the density constant they use. They are a pure function
// of the placement's size, its torus, its uniformity and its two cut
// widths (BoundsOf), so whatever keeps those inputs re-derives them bit
// for bit.
type ClosedForms struct {
	BlaumBound     float64 // Eq. 1: (|P|−1)/2d
	BisectionBound float64 // Eq. 8 using the sweep cut width, or a balanced dimension cut's
	ImprovedBound  float64 // §4: c²k^{d−1}/8 (uniform placements only, else 0)

	// Density constant c with |P| = c·k^{d−1}.
	DensityC float64
}

// BoundsOf evaluates the closed forms for a placement of sizeP processors
// on T^d_k: uniform is its uniformity, sweepWidth the width of its sweep
// cut, and dimWidth and dimBalanced those of its best dimension cut. A
// zero width makes the Eq. 8 bound +Inf. k and d must describe a torus
// (torus.Check); like torus.New, BoundsOf panics on a shape whose face
// k^{d−1} torus.Volume refuses.
func BoundsOf(sizeP, k, d int, uniform bool, sweepWidth, dimWidth int, dimBalanced bool) ClosedForms {
	face, err := torus.Volume(k, d-1)
	if err != nil {
		panic(err)
	}
	c := ClosedForms{
		BlaumBound:     bounds.Blaum(sizeP, d),
		BisectionBound: bounds.Bisection(sizeP, sweepWidth),
		DensityC:       float64(sizeP) / float64(face),
	}
	if dimBalanced {
		if w := bounds.Bisection(sizeP, dimWidth); w > c.BisectionBound {
			c.BisectionBound = w
		}
	}
	if uniform {
		c.ImprovedBound = bounds.Improved(c.DensityC, k, d)
	}
	return c
}

// BestLowerBound returns the strongest of the closed-form lower bounds.
func (c ClosedForms) BestLowerBound() float64 {
	return max(c.BlaumBound, c.BisectionBound, c.ImprovedBound)
}

// Ratios returns the optimality ratio of a measured eMax over sizeP
// processors, eMax divided by the best lower bound (0 unless that bound is
// positive), and its load per processor, eMax/sizeP (0 for no processors).
func (c ClosedForms) Ratios(eMax float64, sizeP int) (optimality, perProcessor float64) {
	if best := c.BestLowerBound(); best > 0 {
		optimality = eMax / best
	}
	if sizeP > 0 {
		perProcessor = eMax / float64(sizeP)
	}
	return optimality, perProcessor
}

// EvaluateBounds computes every lower bound the paper gives for p. The
// sweep cut reads the torus shape's cached sweep table and the dimension
// cut is Theorem 1's closed form, so the cost is O(d·|P|) plus the
// uniformity check.
func EvaluateBounds(p *placement.Placement) Bounds {
	t := p.Torus()
	b := Bounds{
		Uniform:      p.IsUniform(),
		SweepCut:     *bisect.Sweep(p),
		DimensionCut: *bisect.BestDimensionCut(p),
	}
	b.ClosedForms = BoundsOf(p.Size(), t.K(), t.D(), b.Uniform,
		b.SweepCut.Width(), b.DimensionCut.Width(), b.DimensionCut.Balanced())
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

	rep.OptimalityRatio, rep.LoadPerProcessor = rep.Ratios(rep.Load.Max, p.Size())
	return rep
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
