// Package service implements torusd, the long-running HTTP analysis
// service over the reproduction's capabilities: exact E_max loads
// (core.Analyze), the paper's lower bounds, the Theorem 1 / appendix
// bisection constructions, the E1–E33 experiment registry, and the async
// placement-search job API (jobs.go).
//
// The serving pipeline is, per request:
//
//	decode (strict JSON) → canonicalize (spelling only)
//	  → [/v1/analyze: the closed-form analytic lane (analytic.go) answers
//	    Theorem 2 cells here] → node ceiling (Config.MaxNodes) → cache key
//	  → LRU/TTL result cache (a hit is answered from the cache alone)
//	  → on a miss: check that the placement fits the torus (O(d); a
//	    failure is a 400 that nothing caches) → per-request deadline
//	  → singleflight coalescing (identical concurrent requests share one run)
//	  → [cluster peer fill from the key's home peer]
//	  → bounded worker pool (queue backpressure → 429, deadline → 504,
//	    panic isolation → 500) → build the placement once and compute
//	  → cache fill → JSON response
//
// Requests are canonicalized before hashing so that syntactic variants of
// the same analysis — "linear" vs "linear:0" vs "linear:-8" on k=8, "ODR"
// vs "odr" — map to one cache entry. Observability is pure stdlib expvar:
// every counter lives in a per-server expvar.Map served at /debug/vars,
// and access logs are structured JSON lines (log/slog).
//
// Everything is standard library only, matching the repo's no-dependency
// constraint.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"torusnet/internal/cliutil"
	"torusnet/internal/placement"
	"torusnet/internal/torus"
)

// DefaultMaxNodes caps k^d for a served analysis. The paper's tori are
// small (T²₈, T³₈ = 512 nodes); the complete-exchange engine is O(|P|²)
// pair work, so the service refuses tori past this ceiling rather than
// letting one request monopolize the pool. Configurable via Config.
const DefaultMaxNodes = 4096

// AnalyzeRequest asks for the full optimality analysis of one
// (torus, placement, routing) triple — the core.Analyze pipeline.
// Placement uses the cliutil spec grammar (linear[:C], multi:T[:S],
// diagonal[:S], full, random:N[:SEED]); Routing is one of odr, odr-multi,
// udr, udr-multi, far (case-insensitive).
type AnalyzeRequest struct {
	K         int    `json:"k"`
	D         int    `json:"d"`
	Placement string `json:"placement"`
	Routing   string `json:"routing"`
}

// Canonicalize validates the request and rewrites Placement and Routing to
// their canonical spellings, so equal analyses produce equal cache keys.
// It is idempotent: canonicalizing an already-canonical request is a no-op.
// It checks the spelling only; whether the placement fits the torus
// (multi:T with T > k, random counts past k^d, …) is checked when the
// placement is built, on a cache miss.
func (r *AnalyzeRequest) Canonicalize(maxNodes int) error {
	_, err := r.canonicalize(maxNodes)
	return err
}

// canonicalize is Canonicalize returning the canonical placement spec, so
// the miss path builds it without re-parsing the spelling.
func (r *AnalyzeRequest) canonicalize(maxNodes int) (placement.Spec, error) {
	if err := checkTorus(r.K, r.D, maxNodes); err != nil {
		return nil, err
	}
	return r.canonicalSpelling()
}

// canonicalSpelling is canonicalize without the serving ceiling: it checks
// (K, D) against the package representation limits only (torus.Check)
// before rewriting the spellings. The handler runs it ahead of the
// analytic lane, which does no O(k^d) work and so answers tori past
// Config.MaxNodes, and applies the ceiling only when the lane declines.
func (r *AnalyzeRequest) canonicalSpelling() (placement.Spec, error) {
	if err := torus.Check(r.K, r.D); err != nil {
		return nil, err
	}
	p, spec, err := canonicalPlacement(r.Placement, r.K)
	if err != nil {
		return nil, err
	}
	a, err := canonicalRouting(r.Routing)
	if err != nil {
		return nil, err
	}
	r.Placement, r.Routing = p, a
	return spec, nil
}

// CacheKey returns the stable cache identity of the canonicalized request.
func (r *AnalyzeRequest) CacheKey() string {
	var buf [96]byte
	b := appendTorusKey(append(buf[:0], "analyze"...), r.K, r.D, r.Placement)
	b = append(append(b, "|a="...), r.Routing...)
	return string(b)
}

// BoundsRequest asks for every lower bound of the paper on one placement
// (no load computation, so it is much cheaper than a full analysis).
type BoundsRequest struct {
	K         int    `json:"k"`
	D         int    `json:"d"`
	Placement string `json:"placement"`
}

// Canonicalize validates and canonicalizes in place (idempotent). Like
// AnalyzeRequest.Canonicalize it checks the spelling only.
func (r *BoundsRequest) Canonicalize(maxNodes int) error {
	_, err := r.canonicalize(maxNodes)
	return err
}

func (r *BoundsRequest) canonicalize(maxNodes int) (placement.Spec, error) {
	if err := checkTorus(r.K, r.D, maxNodes); err != nil {
		return nil, err
	}
	p, spec, err := canonicalPlacement(r.Placement, r.K)
	if err != nil {
		return nil, err
	}
	r.Placement = p
	return spec, nil
}

// CacheKey returns the stable cache identity of the canonicalized request.
func (r *BoundsRequest) CacheKey() string {
	var buf [96]byte
	return string(appendTorusKey(append(buf[:0], "bounds"...), r.K, r.D, r.Placement))
}

// BisectRequest asks for one bisection construction with respect to a
// placement. Method is sweep (default), best-sweep, or dimension.
type BisectRequest struct {
	K         int    `json:"k"`
	D         int    `json:"d"`
	Placement string `json:"placement"`
	Method    string `json:"method,omitempty"`
}

// Canonicalize validates and canonicalizes in place (idempotent). Like
// AnalyzeRequest.Canonicalize it checks the spelling only.
func (r *BisectRequest) Canonicalize(maxNodes int) error {
	_, err := r.canonicalize(maxNodes)
	return err
}

func (r *BisectRequest) canonicalize(maxNodes int) (placement.Spec, error) {
	if err := checkTorus(r.K, r.D, maxNodes); err != nil {
		return nil, err
	}
	p, spec, err := canonicalPlacement(r.Placement, r.K)
	if err != nil {
		return nil, err
	}
	switch m := strings.ToLower(strings.TrimSpace(r.Method)); m {
	case "":
		r.Method = "sweep"
	case "sweep", "best-sweep", "dimension":
		r.Method = m
	default:
		return nil, fmt.Errorf("service: unknown bisection method %q (want sweep|best-sweep|dimension)", r.Method)
	}
	r.Placement = p
	return spec, nil
}

// CacheKey returns the stable cache identity of the canonicalized request.
func (r *BisectRequest) CacheKey() string {
	var buf [96]byte
	b := appendTorusKey(append(buf[:0], "bisect"...), r.K, r.D, r.Placement)
	b = append(append(b, "|m="...), r.Method...)
	return string(b)
}

// appendTorusKey appends the "|k=K|d=D|p=PLACEMENT" part every placement
// cache key shares. Keys are hashed onto the cluster ring, so their bytes
// must not change: TestCacheKeysMatchSprintf pins them to the fmt form.
func appendTorusKey(b []byte, k, d int, spec string) []byte {
	b = strconv.AppendInt(append(b, "|k="...), int64(k), 10)
	b = strconv.AppendInt(append(b, "|d="...), int64(d), 10)
	return append(append(b, "|p="...), spec...)
}

// ExperimentRequest selects the scale of one registered experiment run.
// An empty body (or empty scale) means quick.
type ExperimentRequest struct {
	Scale string `json:"scale,omitempty"`
}

// Canonicalize validates the scale (idempotent).
func (r *ExperimentRequest) Canonicalize() error {
	switch s := strings.ToLower(strings.TrimSpace(r.Scale)); s {
	case "":
		r.Scale = "quick"
	case "quick", "full":
		r.Scale = s
	default:
		return fmt.Errorf("service: unknown experiment scale %q (want quick|full)", r.Scale)
	}
	return nil
}

// DecodeAnalyzeRequest decodes and canonicalizes one /v1/analyze body under
// the default node ceiling, and checks that the placement fits the torus,
// so an accepted request is one the service can analyze. It is the entry
// point fuzzed by FuzzDecodeAnalyzeRequest, which builds every accepted
// placement; the HTTP handler runs the same decode and fit check, the fit
// check only on a cache miss.
func DecodeAnalyzeRequest(data []byte) (*AnalyzeRequest, error) {
	var req AnalyzeRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	spec, err := req.canonicalize(DefaultMaxNodes)
	if err != nil {
		return nil, err
	}
	if err := spec.Fit(torus.New(req.K, req.D)); err != nil {
		return nil, err
	}
	return &req, nil
}

// decodeStrict decodes data, one JSON value, into v, a pointer to one of
// the flat request structs: it rejects unknown fields and anything but
// whitespace after the value — the wire discipline of every POST
// endpoint. json.Unmarshal already rejects trailing data (reported as
// errTrailingData) and decodes the known fields as a json.Decoder would;
// unknownField adds the one rule it lacks. (A json.Decoder costs about
// 0.75 KB per body, and its More reports false at a trailing '}' or ']'.)
func decodeStrict(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		var se *json.SyntaxError
		if errors.As(err, &se) && strings.HasSuffix(se.Error(), "after top-level value") {
			return errTrailingData
		}
		return fmt.Errorf("service: bad request body: %w", err)
	}
	if key, ok := unknownField(data, fieldNames(v)); ok {
		return fmt.Errorf("service: bad request body: json: unknown field %q", key)
	}
	return nil
}

// errTrailingData rejects a body with more than whitespace after its value.
var errTrailingData = errors.New("service: trailing data after JSON body")

// fieldNames returns the JSON names of the fields of the request struct v
// points to, computed once per type. Every request field carries a json
// tag.
func fieldNames(v any) [][]byte {
	rt := reflect.TypeOf(v)
	if names, ok := fieldNameCache.Load(rt); ok {
		return names.([][]byte)
	}
	st := rt.Elem()
	names := make([][]byte, st.NumField())
	for i := range names {
		name, _, _ := strings.Cut(st.Field(i).Tag.Get("json"), ",")
		names[i] = []byte(name)
	}
	fieldNameCache.Store(rt, names)
	return names
}

// fieldNameCache maps a request pointer type to its fieldNames.
var fieldNameCache sync.Map

// unknownField scans the top-level keys of data, a JSON value that
// json.Unmarshal has already decoded into a flat request struct, and
// returns the first key that names none of fields. It matches as
// encoding/json does: a key names a field when it equals the field's name
// under Unicode case folding, after its escapes are decoded. A value that
// is not an object (null) has no keys. The scan stops at the first
// unknown key, so every value it steps over belongs to a known field: a
// string, a number or null, since anything else fails to decode.
func unknownField(data []byte, fields [][]byte) (string, bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return "", false
	}
	i = skipSpace(data, i+1)
	for i < len(data) && data[i] == '"' {
		end := skipString(data, i)
		key := data[i+1 : end-1]
		if bytes.IndexByte(key, '\\') >= 0 {
			var s string
			if err := json.Unmarshal(data[i:end], &s); err != nil {
				return string(key), true
			}
			key = []byte(s)
		}
		if !namesField(key, fields) {
			return string(key), true
		}
		i = skipSpace(data, end) // at ':'
		i = skipSpace(data, skipScalar(data, skipSpace(data, i+1)))
		if i < len(data) && data[i] == ',' {
			i = skipSpace(data, i+1)
		}
	}
	return "", false
}

// namesField reports whether key names one of fields.
func namesField(key []byte, fields [][]byte) bool {
	for _, f := range fields {
		if bytes.EqualFold(key, f) {
			return true
		}
	}
	return false
}

// skipSpace returns the index of the first non-whitespace byte of data at
// or after i.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// skipString returns the index just past the JSON string starting at i.
func skipString(data []byte, i int) int {
	for i++; i < len(data); i++ {
		switch data[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return i
}

// skipScalar returns the index just past the JSON string, number or
// literal starting at i.
func skipScalar(data []byte, i int) int {
	if i < len(data) && data[i] == '"' {
		return skipString(data, i)
	}
	for i < len(data) {
		switch data[i] {
		case ',', '}', ' ', '\t', '\n', '\r':
			return i
		}
		i++
	}
	return i
}

// checkTorus validates torus parameters against both the package-level
// representation limits and the service's own serving ceiling.
func checkTorus(k, d, maxNodes int) error {
	if err := torus.Check(k, d); err != nil {
		return err
	}
	return checkNodes(k, d, maxNodes)
}

// checkNodes checks a torus torus.Check admitted against the serving
// ceiling maxNodes (<= 0 means DefaultMaxNodes).
func checkNodes(k, d, maxNodes int) error {
	n, err := torus.Volume(k, d)
	if err != nil {
		return err
	}
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	if n > maxNodes {
		return fmt.Errorf("service: torus T^%d_%d has %d nodes, exceeding the service limit of %d", d, k, n, maxNodes)
	}
	return nil
}

// canonicalPlacement parses a placement spec and returns its canonical
// spelling together with the spec that spelling parses to: residues
// reduced with torus.Mod, defaulted fields made explicit (multi:T →
// multi:T:0, random:N → random:N:1). Canonical spellings re-parse to
// themselves. It does not build the placement; see buildPlacement.
func canonicalPlacement(spec string, k int) (string, placement.Spec, error) {
	s, err := cliutil.ParsePlacement(strings.TrimSpace(spec))
	if err != nil {
		return "", nil, err
	}
	var buf [48]byte
	var b []byte
	switch v := s.(type) {
	case placement.Linear:
		c := torus.Mod(v.C, k)
		if c != v.C {
			s = placement.Linear{C: c}
		}
		b = strconv.AppendInt(append(buf[:0], "linear:"...), int64(c), 10)
	case placement.MultipleLinear:
		start := torus.Mod(v.Start, k)
		if start != v.Start {
			s = placement.MultipleLinear{T: v.T, Start: start}
		}
		b = strconv.AppendInt(append(buf[:0], "multi:"...), int64(v.T), 10)
		b = strconv.AppendInt(append(b, ':'), int64(start), 10)
	case placement.ShiftedDiagonal:
		shift := torus.Mod(v.Shift, k)
		if shift != v.Shift {
			s = placement.ShiftedDiagonal{Shift: shift}
		}
		b = strconv.AppendInt(append(buf[:0], "diagonal:"...), int64(shift), 10)
	case placement.Full:
		return "full", s, nil
	case placement.Random:
		b = strconv.AppendInt(append(buf[:0], "random:"...), int64(v.Count), 10)
		b = strconv.AppendInt(append(b, ':'), v.Seed, 10)
	default:
		return "", nil, fmt.Errorf("service: placement spec %q has no canonical form", spec)
	}
	return string(b), s, nil
}

// canonicalRouting maps any accepted routing spelling to its canonical
// lower-case token.
func canonicalRouting(name string) (string, error) {
	if _, err := cliutil.ParseRouting(strings.TrimSpace(name)); err != nil {
		return "", err
	}
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "odrmulti":
		return "odr-multi", nil
	case "udrmulti":
		return "udr-multi", nil
	default:
		return strings.ToLower(strings.TrimSpace(name)), nil
	}
}
