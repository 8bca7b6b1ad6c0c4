package load

import (
	"context"
	"fmt"
	"math"

	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
)

// AnalyticMode selects how Compute uses the closed-form analytic engine.
type AnalyticMode int

const (
	// AnalyticOff (the zero value) never answers analytically. Unlike the
	// fast path, the analytic tier is opt-in: its results carry no per-edge
	// load vector, which changes what downstream consumers can read off
	// the Result, so callers must ask for it.
	AnalyticOff AnalyticMode = iota
	// AnalyticAuto answers from the Theorem 2 closed form when it is an
	// equality: single linear placements under ODR (any k), and under
	// ODR-multi for odd k where the unique shortest ring paths make
	// ODR-multi coincide with ODR. Everything else runs the computed
	// engines.
	AnalyticAuto
	// AnalyticForce additionally serves the Theorem 3–5 upper bounds for
	// multiple linear placements and UDR variants. Those Results have
	// Exact == false: Max is a bound on E_max, not its value.
	AnalyticForce
)

// String names the mode for diagnostics.
func (m AnalyticMode) String() string {
	switch m {
	case AnalyticOff:
		return "off"
	case AnalyticAuto:
		return "auto"
	case AnalyticForce:
		return "force"
	default:
		return fmt.Sprintf("AnalyticMode(%d)", int(m))
	}
}

// AnalyticEval is one closed-form answer from the Theorem 2–5 family.
type AnalyticEval struct {
	// EMax is the closed-form value: E_max itself when Exact, an upper
	// bound on it otherwise.
	EMax float64
	// Exact distinguishes the Theorem 2 equality cells from the
	// Theorem 3–5 bound cells.
	Exact bool
	// Theorem names the paper result the value comes from
	// ("theorem2" … "theorem5").
	Theorem string
}

// AnalyticEMax maps a recognized placement shape — t consecutive residue
// classes on T^d_k — and a routing algorithm name (routing.Algorithm.Name
// spelling) to the paper's closed forms:
//
//	t == 1, ODR                    E_max = ODRLinearMax(k, d)    (Theorem 2, exact)
//	t == 1, ODR-multi, k odd       E_max = ODRLinearMax(k, d)    (Theorem 2, exact: odd
//	                               rings have unique shortest paths, so ODR-multi ≡ ODR)
//	ODR / ODR-multi otherwise      E_max ≤ MultiODRUpperBound    (Theorem 3)
//	UDR / UDR-multi, t == 1        E_max ≤ UDRUpperBound         (Theorem 4)
//	UDR / UDR-multi, t > 1         E_max ≤ MultiUDRUpperBound    (Theorem 5)
//
// exactOnly restricts the map to the equality cells. The second return is
// false when no theorem applies (d < 2, t < 1, or an unknown algorithm);
// d ≥ 2 is required because the theorems' edge census needs at least two
// dimensions (see also the ODRLinearInteriorMax small-d guard).
func AnalyticEMax(k, d, t int, algName string, exactOnly bool) (AnalyticEval, bool) {
	if d < 2 || t < 1 || k < 2 {
		return AnalyticEval{}, false
	}
	switch algName {
	case "ODR":
		if t == 1 {
			return AnalyticEval{EMax: ODRLinearMax(k, d), Exact: true, Theorem: "theorem2"}, true
		}
	case "ODR-multi":
		if t == 1 && k%2 == 1 {
			return AnalyticEval{EMax: ODRLinearMax(k, d), Exact: true, Theorem: "theorem2"}, true
		}
	case "UDR", "UDR-multi":
		if exactOnly {
			return AnalyticEval{}, false
		}
		if t == 1 {
			return AnalyticEval{EMax: UDRUpperBound(k, d), Exact: false, Theorem: "theorem4"}, true
		}
		return AnalyticEval{EMax: MultiUDRUpperBound(k, d, t), Exact: false, Theorem: "theorem5"}, true
	default:
		return AnalyticEval{}, false
	}
	if exactOnly {
		return AnalyticEval{}, false
	}
	return AnalyticEval{EMax: MultiODRUpperBound(k, d, t), Exact: false, Theorem: "theorem3"}, true
}

// AnalyticAnswer fires the load.analytic.dispatch failpoint and then
// consults the theorem map directly. It is the service fast lane's entry:
// there the placement spec itself proves the shape (t residue classes), so
// no recognizer walk is needed. An injected fault answers not-applicable,
// sending the request down the computed path.
func AnalyticAnswer(k, d, t int, algName string, exactOnly bool) (AnalyticEval, bool) {
	if err := fpAnalyticDispatch.Inject(); err != nil {
		return AnalyticEval{}, false
	}
	return AnalyticEMax(k, d, t, algName, exactOnly)
}

// computeAnalytic answers from the closed forms when the mode, the
// recognizer, and the theorem map all agree; ok == false sends the caller
// down the computed path. The failpoint is soft by design: an injected
// fault makes recognition "fail", exercising exactly the fallback a
// recognizer bug would take.
func computeAnalytic(ctx context.Context, p *placement.Placement, alg routing.Algorithm, mode AnalyticMode) (Result, bool) {
	if mode == AnalyticOff {
		return Result{}, false
	}
	if err := fpAnalyticDispatch.Inject(); err != nil {
		return Result{}, false
	}
	t := p.Torus()
	cls := p.LinearClass()
	if !cls.Recognized || !cls.Consecutive {
		return Result{}, false
	}
	ev, ok := AnalyticEMax(t.K(), t.D(), cls.T, alg.Name(), mode != AnalyticForce)
	if !ok {
		return Result{}, false
	}
	_, sp := obs.Start(ctx, "load.analytic")
	defer sp.End()
	sp.SetAttr("theorem", ev.Theorem)
	sp.SetAttrInt("classes", int64(cls.T))
	var res Result
	withEngineLabel(ctx, EngineAnalytic, func() {
		res = Result{
			Torus:     t,
			Placement: p,
			Algorithm: alg.Name(),
			Engine:    EngineAnalytic,
			Max:       ev.EMax,
			Exact:     ev.Exact,
			Theorem:   ev.Theorem,
		}
	})
	return res, true
}

// crossCheckAnalytic panics if an analytic answer disagrees with the
// computed engine: equality within tolerance for exact cells, and the
// bound direction (computed ≤ bound) for Theorem 3–5 cells. Only Max is
// comparable — analytic results carry no per-edge vector.
func crossCheckAnalytic(analytic, computed *Result) {
	scale := math.Max(1, math.Max(math.Abs(analytic.Max), math.Abs(computed.Max)))
	if analytic.Exact {
		if math.Abs(analytic.Max-computed.Max) > crossCheckTolerance*scale {
			panic(fmt.Sprintf(
				"load: analytic engine diverges from computed engine on %s with %s: E_max %g vs %g (%s)",
				analytic.Placement, analytic.Algorithm, analytic.Max, computed.Max, analytic.Theorem))
		}
		return
	}
	if computed.Max > analytic.Max+crossCheckTolerance*scale {
		panic(fmt.Sprintf(
			"load: analytic upper bound violated on %s with %s: bound %g < computed E_max %g (%s)",
			analytic.Placement, analytic.Algorithm, analytic.Max, computed.Max, analytic.Theorem))
	}
}
