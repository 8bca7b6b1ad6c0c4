package service

import (
	"errors"
	"math"

	"torusnet/internal/bisect"
	"torusnet/internal/bounds"
	"torusnet/internal/core"
	"torusnet/internal/load"
	"torusnet/internal/torus"
)

// The result cache keeps one record per placement answer: what was
// measured for it, and nothing its canonical request or the paper's closed
// forms give back. The handler that serves a record rebuilds the wire
// answer from it and the request it already holds (expand): the request
// echo comes from the request, and every bound, the density and both
// ratios are re-derived through core.BoundsOf from the processor count,
// the uniformity and the cut widths the record keeps: the arithmetic that
// computed them, so no float64 but a measured one is kept. Counts are int32 (a torus has at most 2^28 nodes); engine and
// cut-method names are one-byte codes into names. A local compute and a
// peer fill both store the compact form of the wire answer, and compact
// refuses an answer that its record would not expand back into, so a
// filled entry serves the same bytes as a computed one.

// nameCode is a name an answer carries, stored as its index in names, or
// oddName for a name names does not list.
type nameCode uint8

const oddName nameCode = math.MaxUint8

// names are the engine and cut-method names a computed answer carries.
var names = append([]string{
	load.EngineGeneric, load.EngineSymmetry, load.EngineRingFlow,
}, bisect.Methods()...)

var nameCodes = func() map[string]nameCode {
	m := make(map[string]nameCode, len(names))
	for i, n := range names {
		m[n] = nameCode(i)
	}
	return m
}()

// oddNames keeps, by position, the names of one answer that names does not
// list, as decoded: a newer peer's engine or cut method still round-trips.
type oddNames [3]string

// Positions in oddNames.
const (
	oddEngine = iota
	oddSweepMethod
	oddDimensionMethod
)

// codeOf returns n's code, keeping an unlisted n at (*odd)[pos].
func codeOf(n string, odd **oddNames, pos int) nameCode {
	if c, ok := nameCodes[n]; ok {
		return c
	}
	if *odd == nil {
		*odd = new(oddNames)
	}
	(*odd)[pos] = n
	return oddName
}

// nameOf is the name code c stands for, at position pos of odd.
func nameOf(c nameCode, odd *oddNames, pos int) string {
	if c == oddName {
		return odd[pos]
	}
	return names[c]
}

var (
	errCountRange = errors.New("service: answer count out of the int32 range")
	errNotDerived = errors.New("service: answer differs from this server's exact engines and closed forms")
)

// fitsInt32 reports whether every v fits an int32 record field.
func fitsInt32(vs ...int) bool {
	for _, v := range vs {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return false
		}
	}
	return true
}

// stored returns rec as a cache value, or nil and the error that kept it
// from being one (never a typed nil in the interface).
func stored[R any](rec *R, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// cutRecord is a CutSummary without its method's string.
type cutRecord struct {
	width, procsA, procsB int32
	method                nameCode
	balanced              bool
}

func compactCut(c *CutSummary, odd **oddNames, pos int) cutRecord {
	return cutRecord{
		width:    int32(c.Width),
		procsA:   int32(c.ProcsA),
		procsB:   int32(c.ProcsB),
		method:   codeOf(c.Method, odd, pos),
		balanced: c.Balanced,
	}
}

func (c *cutRecord) expand(odd *oddNames, pos int) CutSummary {
	return CutSummary{
		Method:   nameOf(c.method, odd, pos),
		Width:    int(c.width),
		ProcsA:   int(c.procsA),
		ProcsB:   int(c.procsB),
		Balanced: c.balanced,
	}
}

// analyzeRecord is the cached form of an AnalyzeResponse: what the load
// engine measured and the inputs of its closed forms. The request echo
// (K, D, Placement, Routing), the bounds, the density and the two ratios
// are re-derived by expand; Exact is always true and Theorem empty, since
// only computed answers are cached; the per-caller fields (Cached,
// Degraded) are the handler's.
type analyzeRecord struct {
	placementName, maxEdge string
	eMax, totalLoad        float64
	sweepCut, dimensionCut cutRecord
	processors             int32
	engine                 nameCode
	uniform                bool
	odd                    *oddNames // nil unless a name is unlisted
}

// compactAnalyze is a's record. It fails on a count past int32, which no
// torus this server accepts produces but a peer's body could carry, and
// on a body the record would not expand back into: an upper bound or a
// closed-form answer rather than an exact computed one, or bounds and
// ratios other than this server's arithmetic gives.
func compactAnalyze(a *AnalyzeResponse) (*analyzeRecord, error) {
	sc, dc := &a.SweepCut, &a.DimensionCut
	if !fitsInt32(a.Processors, sc.Width, sc.ProcsA, sc.ProcsB, dc.Width, dc.ProcsA, dc.ProcsB) {
		return nil, errCountRange
	}
	if torus.Check(a.K, a.D) != nil {
		return nil, errNotDerived
	}
	r := &analyzeRecord{
		placementName: a.PlacementName,
		maxEdge:       a.MaxEdge,
		eMax:          a.EMax,
		totalLoad:     a.TotalLoad,
		processors:    int32(a.Processors),
		uniform:       a.Uniform,
	}
	r.sweepCut = compactCut(sc, &r.odd, oddSweepMethod)
	r.dimensionCut = compactCut(dc, &r.odd, oddDimensionMethod)
	r.engine = codeOf(a.Engine, &r.odd, oddEngine)
	var back AnalyzeResponse
	r.expand(&AnalyzeRequest{K: a.K, D: a.D, Placement: a.Placement, Routing: a.Routing}, &back)
	back.Cached = a.Cached
	if back != *a {
		return nil, errNotDerived
	}
	return r, nil
}

// expand writes the wire answer to req that r records into out.
func (r *analyzeRecord) expand(req *AnalyzeRequest, out *AnalyzeResponse) {
	procs := int(r.processors)
	cf := core.BoundsOf(procs, req.K, req.D, r.uniform,
		int(r.sweepCut.width), int(r.dimensionCut.width), r.dimensionCut.balanced)
	ratio, perProc := cf.Ratios(r.eMax, procs)
	*out = AnalyzeResponse{
		K:                req.K,
		D:                req.D,
		Placement:        req.Placement,
		Routing:          req.Routing,
		PlacementName:    r.placementName,
		Processors:       procs,
		Uniform:          r.uniform,
		DensityC:         cf.DensityC,
		EMax:             r.eMax,
		MaxEdge:          r.maxEdge,
		LoadPerProcessor: perProc,
		TotalLoad:        r.totalLoad,
		BlaumBound:       jsonSafe(cf.BlaumBound),
		BisectionBound:   jsonSafe(cf.BisectionBound),
		ImprovedBound:    jsonSafe(cf.ImprovedBound),
		BestLowerBound:   jsonSafe(cf.BestLowerBound()),
		OptimalityRatio:  jsonSafe(ratio),
		SweepCut:         r.sweepCut.expand(r.odd, oddSweepMethod),
		DimensionCut:     r.dimensionCut.expand(r.odd, oddDimensionMethod),
		Engine:           nameOf(r.engine, r.odd, oddEngine),
		Exact:            true,
	}
}

// boundsRecord is the cached form of a BoundsResponse: the inputs of its
// closed forms. The wire answer carries no cut, so the record keeps the
// width of the cut behind the Eq. 8 bound, recovered from that bound
// (eq8Width). The request echo (K, D, Placement), every bound and the
// density are re-derived by expand; Cached is the handler's.
type boundsRecord struct {
	placementName     string
	processors, width int32
	uniform           bool
}

// compactBounds is b's record; like compactAnalyze, it refuses a count
// past int32 and a body the record would not expand back into.
func compactBounds(b *BoundsResponse) (*boundsRecord, error) {
	if !fitsInt32(b.Processors) {
		return nil, errCountRange
	}
	w, ok := eq8Width(b.Processors, b.BisectionBound)
	if !ok || torus.Check(b.K, b.D) != nil {
		return nil, errNotDerived
	}
	r := &boundsRecord{
		placementName: b.PlacementName,
		processors:    int32(b.Processors),
		width:         w,
		uniform:       b.Uniform,
	}
	var back BoundsResponse
	r.expand(&BoundsRequest{K: b.K, D: b.D, Placement: b.Placement}, &back)
	back.Cached = b.Cached
	if back != *b {
		return nil, errNotDerived
	}
	return r, nil
}

func (r *boundsRecord) expand(req *BoundsRequest, out *BoundsResponse) {
	procs := int(r.processors)
	cf := core.BoundsOf(procs, req.K, req.D, r.uniform, int(r.width), 0, false)
	*out = BoundsResponse{
		K:                req.K,
		D:                req.D,
		Placement:        req.Placement,
		PlacementName:    r.placementName,
		Processors:       procs,
		Uniform:          r.uniform,
		DensityC:         cf.DensityC,
		BlaumBound:       jsonSafe(cf.BlaumBound),
		BisectionBound:   jsonSafe(cf.BisectionBound),
		ImprovedBound:    jsonSafe(cf.ImprovedBound),
		BestLowerBound:   jsonSafe(cf.BestLowerBound()),
		Theorem1Width:    bounds.Theorem1Width(req.K, req.D),
		CorollaryCeiling: bounds.CorollaryBisectionCeiling(req.K, req.D),
	}
}

// eq8Width returns a cut width w whose Eq. 8 bound, bounds.Bisection(sizeP,
// w), is the wire value bound (math.MaxFloat64 standing for the +Inf of
// w = 0), or false when no width in the int32 range can be. The division
// recovers w exactly for any width a torus has; compactBounds checks the
// round trip all the same.
func eq8Width(sizeP int, bound float64) (int32, bool) {
	switch {
	case bound == math.MaxFloat64:
		return 0, true
	case bound == 0: // no processors: every positive width gives 0
		return 1, true
	case !(bound > 0):
		return 0, false
	}
	half := float64(sizeP) / 2
	w := math.Round(2 * half * half / bound)
	if !(w >= 1 && w <= math.MaxInt32) {
		return 0, false
	}
	return int32(w), true
}

// bisectRecord is the cached form of a BisectResponse: the cut. The
// request echo (K, D, Placement, Method) and the Eq. 8 bound are
// re-derived by expand; Cached is the handler's.
type bisectRecord struct {
	placementName string
	cut           cutRecord
	processors    int32
	odd           *oddNames // nil unless the cut's method is unlisted
}

// compactBisect is b's record; like compactAnalyze, it refuses a count
// past int32 and a body the record would not expand back into.
func compactBisect(b *BisectResponse) (*bisectRecord, error) {
	if !fitsInt32(b.Processors, b.Cut.Width, b.Cut.ProcsA, b.Cut.ProcsB) {
		return nil, errCountRange
	}
	r := &bisectRecord{
		placementName: b.PlacementName,
		processors:    int32(b.Processors),
	}
	r.cut = compactCut(&b.Cut, &r.odd, oddSweepMethod)
	var back BisectResponse
	r.expand(&BisectRequest{K: b.K, D: b.D, Placement: b.Placement, Method: b.Method}, &back)
	back.Cached = b.Cached
	if back != *b {
		return nil, errNotDerived
	}
	return r, nil
}

func (r *bisectRecord) expand(req *BisectRequest, out *BisectResponse) {
	*out = BisectResponse{
		K:              req.K,
		D:              req.D,
		Placement:      req.Placement,
		PlacementName:  r.placementName,
		Processors:     int(r.processors),
		Method:         req.Method,
		Cut:            r.cut.expand(r.odd, oddSweepMethod),
		SeparatorBound: jsonSafe(bounds.Bisection(int(r.processors), int(r.cut.width))),
	}
}
