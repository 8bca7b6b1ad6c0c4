package service

import (
	"errors"
	"math"

	"torusnet/internal/bisect"
	"torusnet/internal/load"
)

// The result cache keeps one record per placement answer: what the answer
// says that its canonical request does not. The handler that serves a
// record rebuilds the wire answer from it and the request it already holds
// (expand), so the cache repeats none of the request's strings. Every
// float64 is kept exactly as computed; counts are int32 (a torus has at
// most 2^28 nodes); engine, theorem and cut-method names are one-byte
// codes into names. A local compute and a peer fill both store the
// compact form of the wire answer, so a filled entry serves the same bytes
// as a computed one.

// nameCode is a name an answer carries, stored as its index in names, or
// oddName for a name names does not list.
type nameCode uint8

const oddName nameCode = math.MaxUint8

// names are the engine, theorem and cut-method names the engines and
// closed forms produce; "" is the theorem of a computed answer.
var names = append([]string{"",
	load.EngineGeneric, load.EngineSymmetry, load.EngineRingFlow, load.EngineAnalytic,
	"theorem2", "theorem3", "theorem4", "theorem5",
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
type oddNames [4]string

// Positions in oddNames.
const (
	oddEngine = iota
	oddTheorem
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

var errCountRange = errors.New("service: answer count out of the int32 range")

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

// analyzeRecord is the cached form of an AnalyzeResponse: everything but
// the request echo (K, D, Placement, Routing) and the per-caller fields
// (Cached, Degraded).
type analyzeRecord struct {
	placementName, maxEdge string

	densityC, eMax, loadPerProcessor, totalLoad float64
	blaumBound, bisectionBound, improvedBound   float64
	bestLowerBound, optimalityRatio             float64
	sweepCut, dimensionCut                      cutRecord
	processors                                  int32
	engine, theorem                             nameCode
	uniform, exact                              bool
	odd                                         *oddNames // nil unless a name is unlisted
}

// compactAnalyze is a's record; it fails only on a count past int32, which
// no torus this server accepts produces but a peer's body could carry.
func compactAnalyze(a *AnalyzeResponse) (*analyzeRecord, error) {
	sc, dc := &a.SweepCut, &a.DimensionCut
	if !fitsInt32(a.Processors, sc.Width, sc.ProcsA, sc.ProcsB, dc.Width, dc.ProcsA, dc.ProcsB) {
		return nil, errCountRange
	}
	r := &analyzeRecord{
		placementName:    a.PlacementName,
		maxEdge:          a.MaxEdge,
		densityC:         a.DensityC,
		eMax:             a.EMax,
		loadPerProcessor: a.LoadPerProcessor,
		totalLoad:        a.TotalLoad,
		blaumBound:       a.BlaumBound,
		bisectionBound:   a.BisectionBound,
		improvedBound:    a.ImprovedBound,
		bestLowerBound:   a.BestLowerBound,
		optimalityRatio:  a.OptimalityRatio,
		processors:       int32(a.Processors),
		uniform:          a.Uniform,
		exact:            a.Exact,
	}
	r.sweepCut = compactCut(sc, &r.odd, oddSweepMethod)
	r.dimensionCut = compactCut(dc, &r.odd, oddDimensionMethod)
	r.engine = codeOf(a.Engine, &r.odd, oddEngine)
	r.theorem = codeOf(a.Theorem, &r.odd, oddTheorem)
	return r, nil
}

// expand writes the wire answer to req that r records into out.
func (r *analyzeRecord) expand(req *AnalyzeRequest, out *AnalyzeResponse) {
	*out = AnalyzeResponse{
		K:                req.K,
		D:                req.D,
		Placement:        req.Placement,
		Routing:          req.Routing,
		PlacementName:    r.placementName,
		Processors:       int(r.processors),
		Uniform:          r.uniform,
		DensityC:         r.densityC,
		EMax:             r.eMax,
		MaxEdge:          r.maxEdge,
		LoadPerProcessor: r.loadPerProcessor,
		TotalLoad:        r.totalLoad,
		BlaumBound:       r.blaumBound,
		BisectionBound:   r.bisectionBound,
		ImprovedBound:    r.improvedBound,
		BestLowerBound:   r.bestLowerBound,
		OptimalityRatio:  r.optimalityRatio,
		SweepCut:         r.sweepCut.expand(r.odd, oddSweepMethod),
		DimensionCut:     r.dimensionCut.expand(r.odd, oddDimensionMethod),
		Engine:           nameOf(r.engine, r.odd, oddEngine),
		Exact:            r.exact,
		Theorem:          nameOf(r.theorem, r.odd, oddTheorem),
	}
}

// boundsRecord is the cached form of a BoundsResponse: everything but the
// request echo (K, D, Placement) and Cached.
type boundsRecord struct {
	placementName string

	densityC, blaumBound, bisectionBound, improvedBound float64
	bestLowerBound, theorem1Width, corollaryCeiling     float64
	processors                                          int32
	uniform                                             bool
}

func compactBounds(b *BoundsResponse) (*boundsRecord, error) {
	if !fitsInt32(b.Processors) {
		return nil, errCountRange
	}
	return &boundsRecord{
		placementName:    b.PlacementName,
		densityC:         b.DensityC,
		blaumBound:       b.BlaumBound,
		bisectionBound:   b.BisectionBound,
		improvedBound:    b.ImprovedBound,
		bestLowerBound:   b.BestLowerBound,
		theorem1Width:    b.Theorem1Width,
		corollaryCeiling: b.CorollaryCeiling,
		processors:       int32(b.Processors),
		uniform:          b.Uniform,
	}, nil
}

func (r *boundsRecord) expand(req *BoundsRequest, out *BoundsResponse) {
	*out = BoundsResponse{
		K:                req.K,
		D:                req.D,
		Placement:        req.Placement,
		PlacementName:    r.placementName,
		Processors:       int(r.processors),
		Uniform:          r.uniform,
		DensityC:         r.densityC,
		BlaumBound:       r.blaumBound,
		BisectionBound:   r.bisectionBound,
		ImprovedBound:    r.improvedBound,
		BestLowerBound:   r.bestLowerBound,
		Theorem1Width:    r.theorem1Width,
		CorollaryCeiling: r.corollaryCeiling,
	}
}

// bisectRecord is the cached form of a BisectResponse: everything but the
// request echo (K, D, Placement, Method) and Cached.
type bisectRecord struct {
	placementName  string
	separatorBound float64
	cut            cutRecord
	processors     int32
	odd            *oddNames // nil unless the cut's method is unlisted
}

func compactBisect(b *BisectResponse) (*bisectRecord, error) {
	if !fitsInt32(b.Processors, b.Cut.Width, b.Cut.ProcsA, b.Cut.ProcsB) {
		return nil, errCountRange
	}
	r := &bisectRecord{
		placementName:  b.PlacementName,
		separatorBound: b.SeparatorBound,
		processors:     int32(b.Processors),
	}
	r.cut = compactCut(&b.Cut, &r.odd, oddSweepMethod)
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
		SeparatorBound: r.separatorBound,
	}
}
