package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"torusnet/internal/cliutil"
	"torusnet/internal/core"
	"torusnet/internal/load"
	"torusnet/internal/torus"
)

// FuzzDecodeAnalyzeRequest hammers the wire decoder/canonicalizer: it must
// never panic, accepted requests must satisfy every validity invariant the
// service relies on (torus within limits, placement/routing parseable),
// and canonicalization must be idempotent so cache keys are stable.
func FuzzDecodeAnalyzeRequest(f *testing.F) {
	seeds := []string{
		`{"k":8,"d":2,"placement":"linear","routing":"odr"}`,
		`{"k":8,"d":3,"placement":"linear:-1","routing":"ODR-MULTI"}`,
		`{"k":6,"d":2,"placement":"multi:2:5","routing":"udr"}`,
		`{"k":6,"d":2,"placement":"diagonal:7","routing":"udr-multi"}`,
		`{"k":4,"d":3,"placement":"full","routing":"far"}`,
		`{"k":8,"d":2,"placement":"random:12:9","routing":"odr"}`,
		`{"k":1,"d":0,"placement":"","routing":""}`,
		`{"k":1000000,"d":9,"placement":"linear","routing":"odr"}`,
		`{"k":8,"d":2,"placement":"linear","routing":"odr","x":1}`,
		`{"k":8,"d":2,"placement":"linear","routing":"odr"}{}`,
		`{"k":8,"d":2,"placement":"linear","routing":"odr"}}`,
		`{"k":8,"d":2,"placement":"linear","routing":"odr"}]`,
		`null`, `[]`, `{`, ``, `{"k":-8,"d":-2,"placement":"linear","routing":"odr"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeAnalyzeRequest(data)
		if err != nil {
			return // rejected input: only the no-panic guarantee applies
		}

		// Accepted ⇒ the torus is valid and inside the serving ceiling.
		if cerr := torus.Check(req.K, req.D); cerr != nil {
			t.Fatalf("accepted invalid torus k=%d d=%d: %v", req.K, req.D, cerr)
		}
		if n, verr := torus.Volume(req.K, req.D); verr != nil || n > DefaultMaxNodes {
			t.Fatalf("accepted torus with %d nodes (err=%v) past limit %d", n, verr, DefaultMaxNodes)
		}

		// Accepted ⇒ the canonical placement builds and routing parses.
		// DecodeAnalyzeRequest accepts on the placement's Fit, so this is
		// also the check that Fit agrees with Build.
		spec, perr := cliutil.ParsePlacement(req.Placement)
		if perr != nil {
			t.Fatalf("canonical placement %q does not re-parse: %v", req.Placement, perr)
		}
		if _, berr := spec.Build(torus.New(req.K, req.D)); berr != nil {
			t.Fatalf("canonical placement %q does not build: %v", req.Placement, berr)
		}
		if _, rerr := cliutil.ParseRouting(req.Routing); rerr != nil {
			t.Fatalf("canonical routing %q does not re-parse: %v", req.Routing, rerr)
		}
		if req.Routing != strings.ToLower(req.Routing) {
			t.Fatalf("canonical routing %q is not lower-case", req.Routing)
		}

		// Canonicalization is idempotent, through both the in-place API and
		// a full re-encode/decode round trip.
		again := *req
		if err := again.Canonicalize(DefaultMaxNodes); err != nil {
			t.Fatalf("re-canonicalize %+v: %v", *req, err)
		}
		if again != *req {
			t.Fatalf("canonicalization not idempotent: %+v -> %+v", *req, again)
		}
		encoded, merr := json.Marshal(req)
		if merr != nil {
			t.Fatalf("canonical request does not marshal: %v", merr)
		}
		roundTrip, rerr := DecodeAnalyzeRequest(encoded)
		if rerr != nil {
			t.Fatalf("canonical request %s rejected on round trip: %v", encoded, rerr)
		}
		if *roundTrip != *req {
			t.Fatalf("round trip drifted: %+v -> %+v", *req, *roundTrip)
		}
		if roundTrip.CacheKey() != req.CacheKey() {
			t.Fatalf("cache key drifted: %q vs %q", roundTrip.CacheKey(), req.CacheKey())
		}
	})
}

// decodeStrictReference is the json.Decoder form of decodeStrict, kept as
// its differential reference: one value, unknown fields rejected, and
// nothing but whitespace after the value. (Decoder.More alone is false at
// a trailing '}' or ']', so it would accept those.)
func decodeStrictReference(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: bad request body: %w", err)
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return errTrailingData
	}
	return nil
}

// FuzzDecodeStrict checks decodeStrict against decodeStrictReference on
// the analyze, bounds, bisect and optimize request bodies: both must
// accept the same bodies and decode them to the same value.
func FuzzDecodeStrict(f *testing.F) {
	for _, s := range []string{
		`{"k":8,"d":2,"placement":"linear","routing":"odr"}`,
		`{"k":8,"d":2,"placement":"linear","routing":"odr"}}`,
		`{"k":8,"d":2,"placement":"linear","routing":"odr"}]`,
		`{"k":8,"d":2,"placement":"linear","routing":"odr"} {}`,
		` {"K":8,"D":3,"PLACEMENT":"random:64","Routing":"udr"} ` + "\n",
		`{"\u006b":8,"d":2,"placement":"multi:2","method":"best-sweep"}`,
		`{"k":8,"d":2,"placement":"linear","method":"sweep","zzz":{"a":[1,"}"]}}`,
		`{"k":6,"d":2,"routing":"udr","strategy":"anneal","steps":100,"seed":-3,"max_visited":9}`,
		`{"k":6,"d":2,"size":4,"routing":"odr","k":7}`,
		`{"k":"8"}`, `{"k":8.5}`, `{"k":1e1}`, `{"placement":null}`, `null`, `[]`, `"x"`, `{`, ``, `{}`, `{"\u212a":3}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		differential[AnalyzeRequest](t, data)
		differential[BoundsRequest](t, data)
		differential[BisectRequest](t, data)
		differential[OptimizeRequest](t, data)
	})
}

// differential decodes data into an R with both decoders and fails on any
// disagreement.
func differential[R comparable](t *testing.T, data []byte) {
	t.Helper()
	var got, want R
	gotErr := decodeStrict(data, &got)
	wantErr := decodeStrictReference(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T from %q: decodeStrict error %v, reference error %v", got, data, gotErr, wantErr)
	}
	if gotErr == nil && got != want {
		t.Fatalf("%T from %q: decodeStrict %+v, reference %+v", got, data, got, want)
	}
}

// FuzzAnswerRecord checks the result cache's records against the answers
// they stand for. For a random torus (k ≤ 9, d ≤ 4, at most 512 nodes),
// placement, routing and bisection method, the answer each placement
// endpoint computes must come back from its record's writer byte for
// byte, as json.Marshal of the computed answer plus the newline a
// json.Encoder ends it with, under either cached stamp: the record a
// local compute takes of what it measured, and the record a peer fill
// decodes from the owner's body. The seeds cover zero-width cuts (|P| ≤
// 1, whose +Inf bounds go on the wire as math.MaxFloat64), non-uniform
// placements and d = 1.
func FuzzAnswerRecord(f *testing.F) {
	for _, s := range []struct{ k, d, kind, a, b, routing, method uint8 }{
		{8, 2, 0, 3, 0, 0, 0},  // linear:3, ODR, sweep
		{8, 3, 4, 64, 5, 2, 1}, // random:64:5, UDR, best-sweep
		{6, 2, 2, 3, 1, 4, 2},  // multi:3:1, FAR, dimension
		{5, 1, 0, 0, 0, 2, 0},  // d = 1: one processor, zero-width sweep cut
		{4, 2, 4, 1, 1, 1, 0},  // random:1: zero-width sweep cut
		{4, 1, 4, 0, 1, 3, 2},  // random:0: no processors
		{4, 3, 3, 0, 0, 4, 1},  // full
		{7, 2, 1, 2, 0, 1, 2},  // diagonal:2 on odd k
		{9, 2, 4, 20, 7, 3, 0}, // random:20:7, non-uniform
	} {
		f.Add(s.k, s.d, s.kind, s.a, s.b, s.routing, s.method)
	}
	routings := []string{"odr", "odr-multi", "udr", "udr-multi", "far"}
	methods := []string{"sweep", "best-sweep", "dimension"}
	ctx := context.Background()
	opts := load.Options{Workers: 1}
	f.Fuzz(func(t *testing.T, k, d, kind, a, b, routing, method uint8) {
		// 2…9 and 1…4 keep their values; other bytes wrap into the range.
		kk, dd := 2+(int(k)+6)%8, 1+(int(d)+3)%4
		if n, err := torus.Volume(kk, dd); err != nil || n > 512 {
			return
		}
		var spec string
		switch kind % 5 {
		case 0:
			spec = fmt.Sprintf("linear:%d", a)
		case 1:
			spec = fmt.Sprintf("diagonal:%d", a)
		case 2:
			spec = fmt.Sprintf("multi:%d:%d", 1+(int(a)+kk-1)%kk, b)
		case 3:
			spec = "full"
		default:
			spec = fmt.Sprintf("random:%d:%d", a, b)
		}
		areq := AnalyzeRequest{K: kk, D: dd, Placement: spec, Routing: routings[int(routing)%len(routings)]}
		ps, err := areq.canonicalize(DefaultMaxNodes)
		if err != nil {
			return
		}
		if fitPlacement(ps, kk, dd) != nil {
			return
		}
		p, err := buildPlacement(ps, kk, dd)
		if err != nil {
			t.Fatalf("%+v: fitted spec does not build: %v", areq, err)
		}
		breq := BoundsRequest{K: kk, D: dd, Placement: areq.Placement}
		sreq := BisectRequest{K: kk, D: dd, Placement: areq.Placement, Method: methods[int(method)%len(methods)]}

		analyze, err := computeAnalyze(ctx, areq, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		bounds := computeBounds(ctx, breq, p)
		bisect, err := computeBisect(ctx, sreq, p)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := cliutil.ParseRouting(areq.Routing)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name    string
			answer  func(cached bool) any
			compute func() (any, error)
			decode  func([]byte) (any, error)
			write   func(rec any, cached bool) []byte
		}{
			{
				"analyze",
				func(cached bool) any { a := analyze; a.Cached = cached; return a },
				func() (any, error) { return stored(analyzeOf(core.AnalyzeCtx(ctx, p, alg, opts))) },
				func(body []byte) (any, error) { return decodeAnalyzeFill(body, &areq, ps) },
				func(rec any, cached bool) []byte { return rec.(*analyzeRecord).appendJSON(nil, &areq, ps, cached) },
			},
			{
				"bounds",
				func(cached bool) any { b := bounds; b.Cached = cached; return b },
				func() (any, error) {
					b := evaluateBounds(ctx, p)
					return stored(boundsOf(&b, p.Size(), kk, dd))
				},
				func(body []byte) (any, error) { return decodeBoundsFill(body, &breq, ps) },
				func(rec any, cached bool) []byte { return rec.(*boundsRecord).appendJSON(nil, &breq, ps, cached) },
			},
			{
				"bisect",
				func(cached bool) any { b := bisect; b.Cached = cached; return b },
				func() (any, error) {
					cut, err := bisectCut(ctx, sreq.Method, p)
					if err != nil {
						return nil, err
					}
					return stored(bisectOf(cut, p.Size()))
				},
				func(body []byte) (any, error) { return decodeBisectFill(body, &sreq, ps) },
				func(rec any, cached bool) []byte { return rec.(*bisectRecord).appendJSON(nil, &sreq, ps, cached) },
			},
		} {
			computed, err := tc.compute()
			if err != nil {
				t.Fatalf("%s: the computed answer's record was refused: %v", tc.name, err)
			}
			for _, cached := range []bool{false, true} {
				want, err := json.Marshal(tc.answer(cached))
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, '\n')
				filled, err := tc.decode(want)
				if err != nil {
					t.Fatalf("%s %s: a peer fill of the computed answer was refused: %v", tc.name, want, err)
				}
				for _, from := range []struct {
					how string
					rec any
				}{{"compute", computed}, {"fill", filled}} {
					if got := tc.write(from.rec, cached); !bytes.Equal(got, want) {
						t.Fatalf("%s from its %s record:\n%s\nwant\n%s", tc.name, from.how, got, want)
					}
				}
			}
		}
	})
}
