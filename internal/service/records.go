package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strconv"

	"torusnet/internal/bisect"
	"torusnet/internal/bounds"
	"torusnet/internal/core"
	"torusnet/internal/load"
	"torusnet/internal/placement"
	"torusnet/internal/torus"
)

// The result cache keeps one record per placement answer: what was
// measured for it, in a fixed-size value with no pointers, and nothing its
// canonical request or the paper's closed forms give back. Each record
// type has one writer, appendJSON, which writes the wire answer to a
// request straight from the record, the request and its canonical spec:
// the request echo and the placement name come from those, and every
// bound, the density and both ratios are re-derived through core.BoundsOf
// from the processor count, the uniformity and the cut widths the record
// keeps, the arithmetic that computed them. Counts are int32 (a torus has
// at most 2^28 nodes); engine and cut-method names are one-byte codes into
// names.
//
// The writer writes the bytes encoding/json writes for the answer's
// response struct (AnalyzeResponse, BoundsResponse, BisectResponse): the
// same field order, number format and string escaping, and the trailing
// newline of a json.Encoder. No record is stored that would not write back
// the answer it came from: a local compute's record is checked field by
// field against the report it was taken from, and a peer fill's record is
// written and compared byte for byte with the owner's body.

// nameCode is a name an answer carries, stored as its index in names.
type nameCode uint8

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

// sameFloat reports whether a and b are the same float64, bit for bit: a
// record's value is written exactly when it is the same as the answer's.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// stored returns rec as a cache value, or nil and the error that kept it
// from being one (never a typed nil in the interface).
func stored[R any](rec *R, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// record is a cached placement answer to a request of type Q.
type record[Q any] interface {
	appendJSON(b []byte, req *Q, spec placement.Spec, cached bool) []byte
}

// filled returns rec, decoded from body, a peer's answer to req, as a
// cache value when rec writes body back byte for byte under the cached
// stamp the owner wrote (the newline after the value aside, which a body
// read from a peer ends with and a bare json.Marshal does not).
func filled[Q any](rec record[Q], body []byte, req *Q, spec placement.Spec, cached bool) (any, error) {
	e := encodeBufs.Get().(*encodeBuf)
	e.buf.Write(rec.appendJSON(e.buf.AvailableBuffer(), req, spec, cached))
	nl := []byte{'\n'}
	same := bytes.Equal(bytes.TrimSuffix(e.buf.Bytes(), nl), bytes.TrimSuffix(body, nl))
	e.buf.Reset()
	encodeBufs.Put(e)
	if !same {
		return nil, errNotDerived
	}
	return rec, nil
}

// cutRecord is a cut without its method's string.
type cutRecord struct {
	width, procsA, procsB int32
	method                nameCode
	balanced              bool
}

// cutOf is c's record, or false when a count does not fit int32 or the
// method is one names does not list.
func cutOf(method string, width, procsA, procsB int, balanced bool) (cutRecord, bool) {
	code, ok := nameCodes[method]
	if !ok || !fitsInt32(width, procsA, procsB) {
		return cutRecord{}, false
	}
	return cutRecord{
		width:    int32(width),
		procsA:   int32(procsA),
		procsB:   int32(procsB),
		method:   code,
		balanced: balanced,
	}, true
}

// appendJSON writes c as a CutSummary.
func (c *cutRecord) appendJSON(b []byte) []byte {
	b = appendJSONString(append(b, `{"method":`...), names[c.method])
	b = strconv.AppendInt(append(b, `,"width":`...), int64(c.width), 10)
	b = strconv.AppendInt(append(b, `,"procs_a":`...), int64(c.procsA), 10)
	b = strconv.AppendInt(append(b, `,"procs_b":`...), int64(c.procsB), 10)
	b = strconv.AppendBool(append(b, `,"balanced":`...), c.balanced)
	return append(b, '}')
}

// appendEcho opens an answer with its request echo: k, d and the canonical
// placement spelling.
func appendEcho(b []byte, k, d int, spelling string) []byte {
	b = strconv.AppendInt(append(b, `{"k":`...), int64(k), 10)
	b = strconv.AppendInt(append(b, `,"d":`...), int64(d), 10)
	return appendJSONString(append(b, `,"placement":`...), spelling)
}

// appendName writes spec's name as a JSON string, formatting it in place.
func appendName(b []byte, spec placement.Spec) []byte {
	start := len(b)
	b = spec.AppendName(append(b, '"'))
	if !jsonPlain(b[start+1:]) {
		// A name with characters to escape (no canonical spec has one).
		return appendJSONString(b[:start], string(b[start+1:]))
	}
	return append(b, '"')
}

// appendClose closes an answer with its per-caller cached stamp and the
// newline a json.Encoder ends each value with.
func appendClose(b []byte, cached bool) []byte {
	return append(strconv.AppendBool(append(b, `,"cached":`...), cached), "}\n"...)
}

// analyzeRecord is the cached form of an AnalyzeResponse: what the load
// engine measured and the inputs of its closed forms. The request echo
// (K, D, Placement, Routing) and the placement name come from the request
// and its spec; the bounds, the density and the two ratios are re-derived;
// Exact is always true and Theorem empty, since only computed answers are
// cached; Cached is the caller's, and Degraded is never set. The busiest
// edge is its source node and its slot among the node's 2d out-edges,
// 2·dimension + direction (torus.Edge order).
type analyzeRecord struct {
	eMax, totalLoad        float64
	sweepCut, dimensionCut cutRecord
	processors             int32
	maxSource              int32
	maxSlot                uint8
	engine                 nameCode
	uniform                bool
}

// analyzeValues are the floats an analyze answer writes.
type analyzeValues struct {
	densityC, eMax, loadPerProcessor, totalLoad            float64
	blaum, bisection, improved, bestLower, optimalityRatio float64
}

// same reports whether v and w are the same floats, bit for bit.
func (v *analyzeValues) same(w *analyzeValues) bool {
	return sameFloat(v.densityC, w.densityC) && sameFloat(v.eMax, w.eMax) &&
		sameFloat(v.loadPerProcessor, w.loadPerProcessor) && sameFloat(v.totalLoad, w.totalLoad) &&
		sameFloat(v.blaum, w.blaum) && sameFloat(v.bisection, w.bisection) &&
		sameFloat(v.improved, w.improved) && sameFloat(v.bestLower, w.bestLower) &&
		sameFloat(v.optimalityRatio, w.optimalityRatio)
}

// values re-derives the floats r's answer on T^d_k writes.
func (r *analyzeRecord) values(k, d int) analyzeValues {
	procs := int(r.processors)
	cf := core.BoundsOf(procs, k, d, r.uniform,
		int(r.sweepCut.width), int(r.dimensionCut.width), r.dimensionCut.balanced)
	ratio, perProc := cf.Ratios(r.eMax, procs)
	return analyzeValues{
		densityC:         cf.DensityC,
		eMax:             r.eMax,
		loadPerProcessor: perProc,
		totalLoad:        r.totalLoad,
		blaum:            jsonSafe(cf.BlaumBound),
		bisection:        jsonSafe(cf.BisectionBound),
		improved:         jsonSafe(cf.ImprovedBound),
		bestLower:        jsonSafe(cf.BestLowerBound()),
		optimalityRatio:  jsonSafe(ratio),
	}
}

// maxEdge is r's busiest edge on t.
func (r *analyzeRecord) maxEdge(t *torus.Torus) torus.Edge {
	return torus.Edge(int(r.maxSource)*2*t.D() + int(r.maxSlot))
}

// setMaxEdge records e, an edge of t, as r's busiest edge.
func (r *analyzeRecord) setMaxEdge(t *torus.Torus, e torus.Edge) {
	r.maxSource = int32(t.EdgeSource(e))
	r.maxSlot = uint8(int(e) - int(t.EdgeSource(e))*2*t.D())
}

// analyzeOf is the record of rep, computed on its placement. It fails on a
// count past int32 or a name names does not list, and on a report its
// record would not write back: a measured value JSON cannot carry, or
// bounds and ratios other than the record re-derives.
func analyzeOf(rep *core.Report) (*analyzeRecord, error) {
	p := rep.Placement
	t := p.Torus()
	sc, dc := &rep.SweepCut, &rep.DimensionCut
	if !fitsInt32(p.Size()) {
		return nil, errCountRange
	}
	sweep, ok1 := cutOf(sc.Method, sc.Width(), sc.ProcsA, sc.ProcsB, sc.Balanced())
	dim, ok2 := cutOf(dc.Method, dc.Width(), dc.ProcsA, dc.ProcsB, dc.Balanced())
	engine, ok3 := nameCodes[rep.Load.Engine]
	if !ok1 || !ok2 || !ok3 || !finite(rep.Load.Max, rep.Load.Total) {
		return nil, errNotDerived
	}
	r := &analyzeRecord{
		eMax:         rep.Load.Max,
		totalLoad:    rep.Load.Total,
		sweepCut:     sweep,
		dimensionCut: dim,
		processors:   int32(p.Size()),
		engine:       engine,
		uniform:      rep.Uniform,
	}
	r.setMaxEdge(t, rep.Load.MaxEdge)
	got, want := r.values(t.K(), t.D()), analyzeValues{
		densityC:         rep.DensityC,
		eMax:             rep.Load.Max,
		loadPerProcessor: rep.LoadPerProcessor,
		totalLoad:        rep.Load.Total,
		blaum:            jsonSafe(rep.BlaumBound),
		bisection:        jsonSafe(rep.BisectionBound),
		improved:         jsonSafe(rep.ImprovedBound),
		bestLower:        jsonSafe(rep.BestLowerBound()),
		optimalityRatio:  jsonSafe(rep.OptimalityRatio),
	}
	if !got.same(&want) {
		return nil, errNotDerived
	}
	return r, nil
}

// appendJSON writes r's answer to req, whose canonical placement is spec,
// stamped cached.
func (r *analyzeRecord) appendJSON(b []byte, req *AnalyzeRequest, spec placement.Spec, cached bool) []byte {
	t := torus.New(req.K, req.D)
	v := r.values(req.K, req.D)
	b = appendEcho(b, req.K, req.D, req.Placement)
	b = appendJSONString(append(b, `,"routing":`...), req.Routing)
	b = appendName(append(b, `,"placement_name":`...), spec)
	b = strconv.AppendInt(append(b, `,"processors":`...), int64(r.processors), 10)
	b = strconv.AppendBool(append(b, `,"uniform":`...), r.uniform)
	b = appendJSONFloat(append(b, `,"density_c":`...), v.densityC)
	b = appendJSONFloat(append(b, `,"e_max":`...), v.eMax)
	var edge [64]byte
	b = appendJSONString(append(b, `,"max_edge":`...), t.AppendEdge(edge[:0], r.maxEdge(t)))
	b = appendJSONFloat(append(b, `,"load_per_processor":`...), v.loadPerProcessor)
	b = appendJSONFloat(append(b, `,"total_load":`...), v.totalLoad)
	b = appendJSONFloat(append(b, `,"blaum_bound":`...), v.blaum)
	b = appendJSONFloat(append(b, `,"bisection_bound":`...), v.bisection)
	b = appendJSONFloat(append(b, `,"improved_bound":`...), v.improved)
	b = appendJSONFloat(append(b, `,"best_lower_bound":`...), v.bestLower)
	b = appendJSONFloat(append(b, `,"optimality_ratio":`...), v.optimalityRatio)
	b = r.sweepCut.appendJSON(append(b, `,"sweep_cut":`...))
	b = r.dimensionCut.appendJSON(append(b, `,"dimension_cut":`...))
	b = appendJSONString(append(b, `,"engine":`...), names[r.engine])
	b = append(b, `,"exact":true`...)
	return appendClose(b, cached)
}

// decodeAnalyzeFill decodes a peer's /v1/analyze answer to req, whose
// canonical placement is spec, into the record local compute would cache.
// A degraded body (a Monte Carlo estimate from an older peer, see
// AnalyzeResponse.Degraded) is refused so it never becomes a cached exact
// answer, and so is a body with a count past int32, an engine or cut
// method this server does not list, or any byte its record would not
// write back: the filler then computes the answer itself.
func decodeAnalyzeFill(data []byte, req *AnalyzeRequest, spec placement.Spec) (any, error) {
	var a AnalyzeResponse
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	if a.Degraded {
		return nil, errors.New("service: peer fill answered degraded; computing exactly instead")
	}
	sc, dc := &a.SweepCut, &a.DimensionCut
	if !fitsInt32(a.Processors, sc.Width, sc.ProcsA, sc.ProcsB, dc.Width, dc.ProcsA, dc.ProcsB) {
		return nil, errCountRange
	}
	t := torus.New(req.K, req.D)
	edge, err := t.ParseEdge(a.MaxEdge)
	sweep, ok1 := cutOf(sc.Method, sc.Width, sc.ProcsA, sc.ProcsB, sc.Balanced)
	dim, ok2 := cutOf(dc.Method, dc.Width, dc.ProcsA, dc.ProcsB, dc.Balanced)
	engine, ok3 := nameCodes[a.Engine]
	if err != nil || !ok1 || !ok2 || !ok3 {
		return nil, errNotDerived
	}
	r := &analyzeRecord{
		eMax:         a.EMax,
		totalLoad:    a.TotalLoad,
		sweepCut:     sweep,
		dimensionCut: dim,
		processors:   int32(a.Processors),
		engine:       engine,
		uniform:      a.Uniform,
	}
	r.setMaxEdge(t, edge)
	return filled[AnalyzeRequest](r, data, req, spec, a.Cached)
}

// boundsRecord is the cached form of a BoundsResponse: the inputs of its
// closed forms. The wire answer carries no cut, so the record keeps the
// width of the cut behind the Eq. 8 bound, recovered from that bound
// (eq8Width). The request echo (K, D, Placement) and the placement name
// come from the request and its spec, every bound and the density are
// re-derived, and Cached is the caller's.
type boundsRecord struct {
	processors, width int32
	uniform           bool
}

// values re-derives the closed forms r's answer on T^d_k writes.
func (r *boundsRecord) values(k, d int) core.ClosedForms {
	return core.BoundsOf(int(r.processors), k, d, r.uniform, int(r.width), 0, false)
}

// boundsOf is the record of b, evaluated on sizeP processors of T^d_k;
// like analyzeOf, it refuses a count past int32 and bounds its record
// would not write back.
func boundsOf(b *core.Bounds, sizeP, k, d int) (*boundsRecord, error) {
	if !fitsInt32(sizeP) {
		return nil, errCountRange
	}
	r, ok := boundsRecordOf(sizeP, b.Uniform, jsonSafe(b.BisectionBound))
	if !ok {
		return nil, errNotDerived
	}
	cf := r.values(k, d)
	if !sameFloat(cf.DensityC, b.DensityC) ||
		!sameFloat(jsonSafe(cf.BlaumBound), jsonSafe(b.BlaumBound)) ||
		!sameFloat(jsonSafe(cf.BisectionBound), jsonSafe(b.BisectionBound)) ||
		!sameFloat(jsonSafe(cf.ImprovedBound), jsonSafe(b.ImprovedBound)) ||
		!sameFloat(jsonSafe(cf.BestLowerBound()), jsonSafe(b.BestLowerBound())) {
		return nil, errNotDerived
	}
	return r, nil
}

// boundsRecordOf is the record of sizeP processors, uniform or not, whose
// Eq. 8 bound is bisection as written, or false when no cut width gives it.
func boundsRecordOf(sizeP int, uniform bool, bisection float64) (*boundsRecord, bool) {
	w, ok := eq8Width(sizeP, bisection)
	if !ok {
		return nil, false
	}
	return &boundsRecord{processors: int32(sizeP), width: w, uniform: uniform}, true
}

// appendJSON writes r's answer to req, whose canonical placement is spec,
// stamped cached.
func (r *boundsRecord) appendJSON(b []byte, req *BoundsRequest, spec placement.Spec, cached bool) []byte {
	cf := r.values(req.K, req.D)
	b = appendEcho(b, req.K, req.D, req.Placement)
	b = appendName(append(b, `,"placement_name":`...), spec)
	b = strconv.AppendInt(append(b, `,"processors":`...), int64(r.processors), 10)
	b = strconv.AppendBool(append(b, `,"uniform":`...), r.uniform)
	b = appendJSONFloat(append(b, `,"density_c":`...), cf.DensityC)
	b = appendJSONFloat(append(b, `,"blaum_bound":`...), jsonSafe(cf.BlaumBound))
	b = appendJSONFloat(append(b, `,"bisection_bound":`...), jsonSafe(cf.BisectionBound))
	b = appendJSONFloat(append(b, `,"improved_bound":`...), jsonSafe(cf.ImprovedBound))
	b = appendJSONFloat(append(b, `,"best_lower_bound":`...), jsonSafe(cf.BestLowerBound()))
	b = appendJSONFloat(append(b, `,"theorem1_width":`...), bounds.Theorem1Width(req.K, req.D))
	b = appendJSONFloat(append(b, `,"corollary_ceiling":`...), bounds.CorollaryBisectionCeiling(req.K, req.D))
	return appendClose(b, cached)
}

// decodeBoundsFill decodes a peer's /v1/bounds answer to req; like
// decodeAnalyzeFill, it refuses a count past int32 and any byte the
// record would not write back.
func decodeBoundsFill(data []byte, req *BoundsRequest, spec placement.Spec) (any, error) {
	var a BoundsResponse
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	if !fitsInt32(a.Processors) {
		return nil, errCountRange
	}
	r, ok := boundsRecordOf(a.Processors, a.Uniform, a.BisectionBound)
	if !ok {
		return nil, errNotDerived
	}
	return filled[BoundsRequest](r, data, req, spec, a.Cached)
}

// eq8Width returns a cut width w whose Eq. 8 bound, bounds.Bisection(sizeP,
// w), is the wire value bound (math.MaxFloat64 standing for the +Inf of
// w = 0), or false when no width in the int32 range can be. The division
// recovers w exactly for any width a torus has; boundsOf and
// decodeBoundsFill check the round trip all the same.
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
// request echo (K, D, Placement, Method) and the placement name come from
// the request and its spec, the Eq. 8 bound is re-derived, and Cached is
// the caller's.
type bisectRecord struct {
	cut        cutRecord
	processors int32
}

// bisectOf is the record of cut, built on sizeP processors. It refuses a
// count past int32 and a method names does not list; the Eq. 8 bound it
// writes is the one the cut's own width and sizeP give.
func bisectOf(cut *bisect.Cut, sizeP int) (*bisectRecord, error) {
	if !fitsInt32(sizeP, cut.Width(), cut.ProcsA, cut.ProcsB) {
		return nil, errCountRange
	}
	c, ok := cutOf(cut.Method, cut.Width(), cut.ProcsA, cut.ProcsB, cut.Balanced())
	if !ok {
		return nil, errNotDerived
	}
	return &bisectRecord{cut: c, processors: int32(sizeP)}, nil
}

// appendJSON writes r's answer to req, whose canonical placement is spec,
// stamped cached.
func (r *bisectRecord) appendJSON(b []byte, req *BisectRequest, spec placement.Spec, cached bool) []byte {
	b = appendEcho(b, req.K, req.D, req.Placement)
	b = appendName(append(b, `,"placement_name":`...), spec)
	b = strconv.AppendInt(append(b, `,"processors":`...), int64(r.processors), 10)
	b = appendJSONString(append(b, `,"method":`...), req.Method)
	b = r.cut.appendJSON(append(b, `,"cut":`...))
	b = appendJSONFloat(append(b, `,"separator_bound":`...),
		jsonSafe(bounds.Bisection(int(r.processors), int(r.cut.width))))
	return appendClose(b, cached)
}

// decodeBisectFill decodes a peer's /v1/bisect answer to req; like
// decodeAnalyzeFill, it refuses a count past int32, an unlisted cut method
// and any byte the record would not write back.
func decodeBisectFill(data []byte, req *BisectRequest, spec placement.Spec) (any, error) {
	var a BisectResponse
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	c := &a.Cut
	if !fitsInt32(a.Processors, c.Width, c.ProcsA, c.ProcsB) {
		return nil, errCountRange
	}
	cut, ok := cutOf(c.Method, c.Width, c.ProcsA, c.ProcsB, c.Balanced)
	if !ok {
		return nil, errNotDerived
	}
	return filled[BisectRequest](&bisectRecord{cut: cut, processors: int32(a.Processors)}, data, req, spec, a.Cached)
}
