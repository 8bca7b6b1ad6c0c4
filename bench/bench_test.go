package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"torusnet/internal/obs"
	"torusnet/internal/service"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i + 1)
		}
		return vs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) int64 { return int64(n) * int64(time.Millisecond) }
	tr := obs.Trace{TraceID: "t", Spans: []obs.SpanData{
		{SpanID: 1, Name: "root", Start: at(0), DurationNS: ms(100)},
		{SpanID: 2, ParentID: 1, Name: "a", Start: at(10), DurationNS: ms(30)},    // 10–40
		{SpanID: 3, ParentID: 1, Name: "b", Start: at(30), DurationNS: ms(30)},    // 30–60, overlaps a
		{SpanID: 4, ParentID: 2, Name: "a1", Start: at(15), DurationNS: ms(5)},    // 15–20
		{SpanID: 5, ParentID: 3, Name: "b1", Start: at(50), DurationNS: ms(20)},   // 50–70, past b's end
		{SpanID: 6, ParentID: 1, Name: "late", Start: at(90), DurationNS: ms(20)}, // 90–110, past root's end
	}}
	want := map[string]time.Duration{
		"root": 40 * time.Millisecond, // 100 − |10–60 ∪ 90–100|
		"a":    25 * time.Millisecond,
		"b":    20 * time.Millisecond, // 30 − clipped 50–60
		"a1":   5 * time.Millisecond,
		"b1":   20 * time.Millisecond,
		"late": 20 * time.Millisecond,
	}
	for _, s := range selfTimes(tr) {
		if s.Self != want[s.Name] {
			t.Errorf("self(%s) = %v, want %v", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestMixesReproducible(t *testing.T) {
	mixes := map[string]func(int64) mix{"hot": hotMix, "cold": coldMix, "cluster": clusterMix}
	for name, newMix := range mixes {
		a, b, c := newMix(7), newMix(7), newMix(8)
		differs := false
		for i := 0; i < 5000; i++ {
			ra, rb, rc := a(), b(), c()
			if !bytes.Equal(ra.body, rb.body) {
				t.Fatalf("%s: draw %d differs for one seed: %s vs %s", name, i, ra.body, rb.body)
			}
			differs = differs || !bytes.Equal(ra.body, rc.body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 drew identical streams", name)
		}
	}
	// Rank → class is fixed; only the placement seed follows the seed.
	for r := 0; r < 64; r++ {
		a, b := clusterKey(1, r), clusterKey(2, r)
		if a.k != b.k || a.d != b.d || a.routing != b.routing || a.placement == b.placement {
			t.Errorf("rank %d: %s vs %s", r, a.key, b.key)
		}
	}
}

func TestMixKeysAreCanonical(t *testing.T) {
	for _, newMix := range []func(int64) mix{hotMix, coldMix, clusterMix} {
		m := newMix(3)
		for i := 0; i < 500; i++ {
			r := m()
			if r.path != "/v1/analyze" || procs(r.k, r.d)*r.k > service.DefaultMaxNodes {
				continue
			}
			got, err := service.DecodeAnalyzeRequest(r.body)
			if err != nil {
				t.Fatal(err)
			}
			if got.CacheKey() != r.key {
				t.Fatalf("server key %q, generator key %q", got.CacheKey(), r.key)
			}
		}
	}
}

// TestOpenLoopChargesStall stalls the first answer of a fake server and
// checks that every request scheduled behind the stall is charged the wait
// from its scheduled send time, not from when it could finally be sent.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 150 * time.Millisecond
	resp, err := json.Marshal(service.BoundsResponse{K: 16, D: 2, Placement: "random:16:1", BlaumBound: 3.75, BestLowerBound: 3.75})
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan struct{}, 1)
	first <- struct{}{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-first:
			time.Sleep(stall)
		default:
		}
		if _, err := w.Write(resp); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()
	req := &request{path: "/v1/bounds", body: []byte(`{}`), key: "k", k: 16, d: 2, placement: "random:16:1"}
	ops := make([]op, 30)
	for i := range ops {
		ops[i] = op{at: time.Duration(i) * 2 * time.Millisecond, req: req}
	}
	c := newClient(1)
	defer c.close()
	s := newSender(c, &deployment{urls: []string{srv.URL}, live: []int{0}}, &tally{}, make(map[string]sampled))
	res := newOpenResult(ops)
	s.openLoop(context.Background(), 1, ops, res)
	if f := s.t.failed.Load(); f != 0 {
		t.Fatalf("%d failed: %v", f, s.t.errs)
	}
	for i := 1; i < len(ops); i++ {
		// Op i was due at 2i ms but could only go out after the stalled
		// first answer, ~stall after the start.
		if want := stall - ops[i].at - 5*time.Millisecond; res.latency[i] < want {
			t.Errorf("op %d due at %v: latency %v, want at least %v", i, ops[i].at, res.latency[i], want)
		}
	}
	// Timed from the moment each was actually sent, only the first request
	// waited out the stall.
	fromSend := res.latencies(ops, true)
	if second := fromSend[len(fromSend)-2]; second >= float64(stall/time.Millisecond)/2 {
		t.Errorf("second-slowest latency from send %vms, want well under the %v stall", second, stall)
	}
	if max := s.inflightMax.Load(); max != 1 {
		t.Errorf("in flight max %d with one sender", max)
	}
}

func TestCompareFlagsDisagreement(t *testing.T) {
	spec := &Spec{EndToEnd: []MetricSpec{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	set := func(vs ...float64) []Record {
		var out []Record
		for _, v := range vs {
			out = append(out, Record{Workload: "w", Valid: true, Correct: true, Metrics: map[string]Metric{"p50_ms": {v, "ms"}}})
		}
		return out
	}
	cases := []struct {
		a, b    []Record
		regress bool
		ok      bool
		why     string
	}{
		{set(1, 1.02, 0.98), set(1.05, 1.04, 1.06), false, true, "medians 5% apart agree under a 10% bound"},
		{set(1, 1.02, 0.98), set(1.2, 1.1, 1.3), false, false, "medians 20% apart disagree"},
		{set(1, 1.02, 0.98), set(0.8, 0.9, 0.7), false, false, "a 20% gain is a disagreement"},
		{set(1, 1.02, 0.98), set(0.8, 0.9, 0.7), true, true, "a 20% gain is no regression"},
		{set(1, 1.02, 0.98), set(1.2, 1.1, 1.3), true, false, "a 20% loss is a regression"},
		{set(1, 1.02, 0.98), set(1.05, 1.04, 1.06), true, true, "a 5% loss is within the bound"},
	}
	for _, c := range cases {
		if _, ok := Compare(spec, c.a, c.b, c.regress); ok != c.ok {
			t.Errorf("%s: Compare(regress=%v) = %v", c.why, c.regress, ok)
		}
	}
	higher := &Spec{EndToEnd: []MetricSpec{{Name: "p50_ms", Unit: "ms", Better: "higher", Bound: 0.1}}}
	if _, ok := Compare(higher, set(1, 1, 1), set(0.8, 0.8, 0.8), true); ok {
		t.Error("a 20% drop in a higher-is-better metric is a regression")
	}
	bad := set(1, 1, 1)
	bad[0].Valid = false
	if _, ok := Compare(spec, bad, set(1, 1, 1), false); ok {
		t.Error("an invalid run must fail the comparison")
	}
}

// TestSmokeEveryWorkload runs each workload briefly in both modes and
// checks that it emits exactly the metrics BENCHMARK.json declares, with
// their units, and that no request fails.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				res, err := Run(context.Background(), Config{Workload: w, Seed: 1, Seconds: 0.3, Trace: traced})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
					t.Errorf("attempted %d failed %d correct %v: %v", res.Attempted, res.Failed, res.Correct, res.Errors)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, ms := range want {
					if m, ok := res.Metrics[ms.Name]; !ok || m.Unit != ms.Unit {
						t.Errorf("metric %s = %+v, want unit %s", ms.Name, m, ms.Unit)
					}
				}
			})
		}
	}
}
