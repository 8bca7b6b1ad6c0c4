package torusnet

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"torusnet/internal/core"
	"torusnet/internal/load"
	"torusnet/internal/optimize"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/schedule"
	"torusnet/internal/service"
	"torusnet/internal/sweep"
)

// benchExperiment runs one registered experiment per iteration at Quick
// scale; `go test -bench=E<k>` regenerates experiment E<k>'s rows (the
// full-scale tables live in results/ via cmd/experiments).
func benchExperiment(b *testing.B, id string) {
	e, ok := sweep.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := e.Run(sweep.Quick)
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkE1BlaumBound(b *testing.B)     { benchExperiment(b, "E1") }
func BenchmarkE2FullTorus(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3SweepSeparator(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4DimCut(b *testing.B)         { benchExperiment(b, "E4") }
func BenchmarkE5ImprovedBound(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE6ODRExact(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkE7MultiODR(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8UDR(b *testing.B)            { benchExperiment(b, "E8") }
func BenchmarkE9MultiUDR(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Figure1(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11Faults(b *testing.B)        { benchExperiment(b, "E11") }
func BenchmarkE12SimNet(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13Optimality(b *testing.B)    { benchExperiment(b, "E13") }
func BenchmarkE14SlabCount(b *testing.B)     { benchExperiment(b, "E14") }
func BenchmarkE15RoutingMatrix(b *testing.B) { benchExperiment(b, "E15") }
func BenchmarkE16TieBreaking(b *testing.B)   { benchExperiment(b, "E16") }
func BenchmarkE17Uniformity(b *testing.B)    { benchExperiment(b, "E17") }
func BenchmarkE18Coefficients(b *testing.B)  { benchExperiment(b, "E18") }
func BenchmarkE19FlowControl(b *testing.B)   { benchExperiment(b, "E19") }

// Micro-benchmarks of the hot engines, for performance tracking.

func BenchmarkLoadComputeODR(b *testing.B) {
	t := NewTorus(16, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ComputeLoad(p, ODR{}, LoadOptions{})
		if res.Max <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkLoadEMaxODR is BenchmarkLoadComputeODR through load.EMaxCtx,
// the path of every caller that reads only E_max: worker 0's accumulator
// comes from the pooled workspace too, so bytes/op (gated by
// scripts/ci_bench_smoke.sh) stay far below the 196 608-byte edge vector.
func BenchmarkLoadEMaxODR(b *testing.B) {
	t := NewTorus(16, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := load.EMaxCtx(context.Background(), p, ODR{}, LoadOptions{})
		if res.Max <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkLoadEMaxUDRRandom is the kernel under a cold-compute UDR
// analysis: E_max over random:64 on T³₈, one worker. A random placement
// has no translation symmetry, so the ring-flow engine answers it.
func BenchmarkLoadEMaxUDRRandom(b *testing.B) { benchEMaxUDRRandom(b, load.FastPathAuto) }

// BenchmarkLoadEMaxUDRRandomGeneric is BenchmarkLoadEMaxUDRRandom through
// the generic pair loop, the other half of the gate's UDRRandom ratio.
func BenchmarkLoadEMaxUDRRandomGeneric(b *testing.B) { benchEMaxUDRRandom(b, load.FastPathOff) }

func benchEMaxUDRRandom(b *testing.B, mode load.FastPathMode) {
	p := benchRandomT3_8(b)
	opts := LoadOptions{Workers: 1, FastPath: mode}
	// One untimed call sizes the pooled workspace, so the bytes/op gate
	// (a recorded 0) counts per-op bytes only, however few ops run.
	load.EMaxCtx(context.Background(), p, UDR{}, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := load.EMaxCtx(context.Background(), p, UDR{}, opts); res.Max <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkLoadEMaxFARSymmetry is FAR E_max over multi:3 on T³₈, one
// worker: 192 processors in three orbits of the 64-element translation
// group, so the symmetry engine routes 3·191 pairs and folds the base
// vector by cosets. Its workspace is warmed before the timer, so the
// gated allocs/op and bytes/op are 0.
func BenchmarkLoadEMaxFARSymmetry(b *testing.B) { benchEMaxFARSymmetry(b, load.FastPathAuto) }

// BenchmarkLoadEMaxFARSymmetryGeneric is BenchmarkLoadEMaxFARSymmetry
// through the generic pair loop (all 192·191 pairs), the other half of the
// gate's FARSymmetry ratio.
func BenchmarkLoadEMaxFARSymmetryGeneric(b *testing.B) { benchEMaxFARSymmetry(b, load.FastPathOff) }

func benchEMaxFARSymmetry(b *testing.B, mode load.FastPathMode) {
	p, err := (MultipleLinear{T: 3}).Build(NewTorus(8, 3))
	if err != nil {
		b.Fatal(err)
	}
	opts := LoadOptions{Workers: 1, FastPath: mode}
	if res := load.EMaxCtx(context.Background(), p, routing.FAR{}, opts); mode == load.FastPathAuto && res.Engine != load.EngineSymmetry {
		b.Fatalf("engine %q, want %q", res.Engine, load.EngineSymmetry)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := load.EMaxCtx(context.Background(), p, routing.FAR{}, opts); res.Max <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkLoadEMaxFARRandom is FAR E_max over random:16 on T²₁₆, one
// worker: no recorded translation group, so the generic pair loop runs FAR's
// Pascal-lattice kernel for all 240 pairs. The lattice lives in the pooled
// pair scratch, so allocs/op and bytes/op (gated by
// scripts/ci_bench_smoke.sh) stay flat in the pair count.
func BenchmarkLoadEMaxFARRandom(b *testing.B) {
	p, err := (Random{Count: 16, Seed: 1}).Build(NewTorus(16, 2))
	if err != nil {
		b.Fatal(err)
	}
	opts := LoadOptions{Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := load.EMaxCtx(context.Background(), p, routing.FAR{}, opts); res.Max <= 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkLoadComputeODRSerial(b *testing.B) {
	t := NewTorus(8, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLoad(p, ODR{}, LoadOptions{Workers: 1})
	}
}

// BenchmarkLoadComputeODRGeneric pins the generic O(|P|²) pair loop on the
// same workload as BenchmarkLoadComputeODR; the ratio of the two is the
// machine-independent speedup that scripts/ci_bench_smoke.sh gates on.
func BenchmarkLoadComputeODRGeneric(b *testing.B) {
	t := NewTorus(16, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ComputeLoad(p, ODR{}, LoadOptions{FastPath: load.FastPathOff})
		if res.Max <= 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkLoadComputeODRMulti(b *testing.B) {
	t := NewTorus(16, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLoad(p, routing.ODRMulti{}, LoadOptions{})
	}
}

func BenchmarkLoadComputeODRMultiGeneric(b *testing.B) {
	t := NewTorus(16, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLoad(p, routing.ODRMulti{}, LoadOptions{FastPath: load.FastPathOff})
	}
}

func BenchmarkLoadComputeUDR(b *testing.B) {
	t := NewTorus(6, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLoad(p, UDR{}, LoadOptions{})
	}
}

func BenchmarkLoadComputeUDRGeneric(b *testing.B) {
	t := NewTorus(6, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLoad(p, UDR{}, LoadOptions{FastPath: load.FastPathOff})
	}
}

func BenchmarkLoadComputeFAR(b *testing.B) {
	t := NewTorus(6, 2)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLoad(p, routing.FAR{}, LoadOptions{})
	}
}

// BenchmarkComputePattern prices a weighted traffic pattern: matrix
// transposition over the linear placement of T³₈ under UDR, through the
// same in-place pair kernel and striped fan-out as the complete-exchange
// engines.
func BenchmarkComputePattern(b *testing.B) {
	t := NewTorus(8, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := ComputePatternLoad(p, PatternTranspose{}, UDR{}, LoadOptions{}); res.Max <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkComputeValiant prices Valiant two-phase routing of the same
// transposition on the linear placement of T²₈ under ODR: two weighted
// pair kernels per demand and intermediate node.
func BenchmarkComputeValiant(b *testing.B) {
	t := NewTorus(8, 2)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := load.ComputeValiant(p, PatternTranspose{}, ODR{}, LoadOptions{}); res.Max <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkAnalyzeAnalytic prices the analytic lane's closed-form path on
// the workload of BenchmarkLoadComputeODR/Generic, the linear placement of
// T³₁₆ under ODR, so the ratio against those two is the closed-form
// speedup.
func BenchmarkAnalyzeAnalytic(b *testing.B) { benchAnalyticK(b, 16) }

// benchAnalyticK drives what torusd's analytic lane runs on a canonical
// request — t read off the placement spec (placement.ResidueClasses), then
// load.AnalyticAnswer — at one torus size. Nothing is built: zero
// allocations per op, and latency must stay flat in k — the whole point of
// the closed forms.
func benchAnalyticK(b *testing.B, k int) {
	var spec PlacementSpec = Linear{C: 0}
	var alg routing.Algorithm = ODR{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		classes, ok := placement.ResidueClasses(spec)
		ev, answered := load.AnalyticAnswer(k, 3, classes, alg.Name(), true)
		if !ok || !answered || ev.EMax <= 0 {
			b.Fatalf("no analytic answer for k=%d", k)
		}
	}
}

func BenchmarkAnalyzeAnalyticK16(b *testing.B)  { benchAnalyticK(b, 16) }
func BenchmarkAnalyzeAnalyticK64(b *testing.B)  { benchAnalyticK(b, 64) }
func BenchmarkAnalyzeAnalyticK256(b *testing.B) { benchAnalyticK(b, 256) }

// BenchmarkBranchBoundT2_8 runs the full proven branch-and-bound search on
// T²₈ with |P| = 8 under ODR, single-threaded. Expansions price each node
// incrementally without allocating, so allocs/op (gated by
// scripts/ci_bench_smoke.sh) stays a few hundred however many of the
// ~170k expansions run.
func BenchmarkBranchBoundT2_8(b *testing.B) {
	t := NewTorus(8, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := BranchBoundPlacement(context.Background(), t, ODR{}, AnnealConfig{Size: 8, Workers: 1})
		if err != nil || !res.Proven || res.BestEMax != 3 {
			b.Fatalf("err %v proven %v e_max %v, want proven 3", err, res.Proven, res.BestEMax)
		}
	}
}

// BenchmarkAnnealT3_8 anneals |P| = 64 on T³₈ under ODR for 200 moves from
// the Lee-sphere seed, single-threaded — the torusd anneal job. Moves
// allocate nothing, so allocs/op counts only the seed's and the result's
// engine runs.
func BenchmarkAnnealT3_8(b *testing.B) {
	t := NewTorus(8, 3)
	seed, err := LeeSeedPlacement(t, 64, ODR{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := AnnealConfig{Size: 64, Steps: 200, Seed: 1, Workers: 1, Start: seed.Best.Nodes()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := optimize.Anneal(t, ODR{}, cfg); res.Steps != 200 {
			b.Fatalf("ran %d steps, want 200", res.Steps)
		}
	}
}

func BenchmarkSweepBisection(b *testing.B) {
	t := NewTorus(8, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cut := SweepBisect(p)
		if !cut.Balanced() {
			b.Fatal("unbalanced")
		}
	}
}

// BenchmarkAnalyzeRandomT3_8 runs the whole analysis of one cold-compute
// request: UDR over random:64 on T³₈, one load worker. The bounds half
// reads the shape's cached sweep table and the closed-form dimension cut,
// so allocs/op (gated by scripts/ci_bench_smoke.sh) do not grow with k^d.
func BenchmarkAnalyzeRandomT3_8(b *testing.B) {
	p := benchRandomT3_8(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := core.AnalyzeCtx(context.Background(), p, UDR{}, LoadOptions{Workers: 1}); rep.Load.Max <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkBestSweepT3_8 scans the balanced window of the sweep for
// random:64 on T³₈ over the cached table.
func BenchmarkBestSweepT3_8(b *testing.B) {
	p := benchRandomT3_8(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cut := BestSweepBisect(p); !cut.Balanced() {
			b.Fatal("unbalanced")
		}
	}
}

// benchRandomT3_8 is torusd's random:64 placement on T³₈.
func benchRandomT3_8(b *testing.B) *Placement {
	p, err := (Random{Count: 64, Seed: 1}).Build(NewTorus(8, 3))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkSimulateExchange(b *testing.B) {
	t := NewTorus(8, 2)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := Simulate(SimConfig{Placement: p, Algorithm: UDR{}, Seed: int64(i)})
		if st.Aborted {
			b.Fatal("aborted")
		}
	}
}

func BenchmarkMonteCarloLoad(b *testing.B) {
	t := NewTorus(6, 2)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load.MonteCarlo(p, UDR{}, 10, int64(i), LoadOptions{})
	}
}

func BenchmarkE20Wormhole(b *testing.B) { benchExperiment(b, "E20") }
func BenchmarkE21Schedule(b *testing.B) { benchExperiment(b, "E21") }

func BenchmarkWormholeExchange(b *testing.B) {
	t := NewTorus(6, 2)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := SimulateWormhole(WormholeConfig{Placement: p, Algorithm: ODR{}, Seed: 1, MaxCycles: 100000})
		if st.Deadlocked {
			b.Fatal("deadlock")
		}
	}
}

func BenchmarkScheduleExchange(b *testing.B) {
	t := NewTorus(8, 2)
	p, err := (Full{}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := schedule.CompleteExchange(p, ODR{}, 1, schedule.LongestFirst)
		if res.Length < res.LowerBound() {
			b.Fatal("impossible schedule")
		}
	}
}

func BenchmarkE22Patterns(b *testing.B)    { benchExperiment(b, "E22") }
func BenchmarkE23Coverage(b *testing.B)    { benchExperiment(b, "E23") }
func BenchmarkE24Degraded(b *testing.B)    { benchExperiment(b, "E24") }
func BenchmarkE25BSPGap(b *testing.B)      { benchExperiment(b, "E25") }
func BenchmarkE26Valiant(b *testing.B)     { benchExperiment(b, "E26") }
func BenchmarkE27MeshVsTorus(b *testing.B) { benchExperiment(b, "E27") }
func BenchmarkE28Annealing(b *testing.B)   { benchExperiment(b, "E28") }
func BenchmarkE29Adaptive(b *testing.B)    { benchExperiment(b, "E29") }
func BenchmarkE30OpenLoop(b *testing.B)    { benchExperiment(b, "E30") }
func BenchmarkE31FastPath(b *testing.B)    { benchExperiment(b, "E31") }
func BenchmarkE32Analytic(b *testing.B)    { benchExperiment(b, "E32") }

// BenchmarkServeAnalyzeCacheHit serves one warm /v1/analyze key (UDR on
// T^3_8 random:64) through torusd's full middleware-wrapped handler into a
// recorder: the cache-hit path, with no network. bench-smoke holds its
// allocs/op to the recorded count with no slack, so work re-added ahead of
// the cache lookup — a placement build or a request timer — fails CI.
// Like torusd and every bench/run.sh workload, it runs with the analytic
// lane on, so the lane's canonicalization and decline are counted.
func BenchmarkServeAnalyzeCacheHit(b *testing.B) {
	s := service.New(service.Config{Workers: 1, EnableAnalytic: true})
	defer s.Close()
	h := s.Handler()
	body := []byte(`{"k":8,"d":3,"placement":"random:64","routing":"udr"}`)
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		b.Fatalf("warm-up analyze: status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
			b.Fatalf("analyze on a warm key: status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkServeAnalyzeMiss serves a fresh /v1/analyze key per op (UDR on
// T^3_8 random:64:SEED, a new SEED each time) through torusd's full
// middleware-wrapped handler into a recorder: the cache-miss path of
// decode, placement build, flight, pool and report assembly, with no
// network. bench-smoke holds its allocs/op to the recorded count with no
// slack, so a per-miss allocation added anywhere on that path fails CI.
// The analytic lane is on, as in torusd.
func BenchmarkServeAnalyzeMiss(b *testing.B) {
	s := service.New(service.Config{Workers: 1, CacheSize: 1, EnableAnalytic: true})
	defer s.Close()
	h := s.Handler()
	prefix := []byte(`{"k":8,"d":3,"placement":"random:64:`)
	body := make([]byte, 0, 96)
	seed := int64(1)
	serve := func() *httptest.ResponseRecorder {
		body = strconv.AppendInt(append(body[:0], prefix...), seed, 10)
		body = append(body, `","routing":"udr"}`...)
		seed++
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		b.Fatalf("warm-up analyze: status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":false`)) {
			b.Fatalf("analyze on a fresh key: status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkServeAnalyzeRetained fills a 512-entry result cache with UDR
// answers on T^2_16 random:16:SEED (SEED = 1…512) through torusd's
// middleware-wrapped handler and reports the heap bytes one cached answer
// keeps alive: HeapAlloc after two GCs with the cache full, minus the same
// with the server built and empty, over 512. The figure counts the whole
// entry (key, index, LRU links, the stored answer and its strings) and is
// machine-independent for a fixed Go version; bench-smoke holds it to the
// recorded value with no slack. The analytic lane is on, as in torusd.
func BenchmarkServeAnalyzeRetained(b *testing.B) {
	const entries = 512
	body := make([]byte, 0, 96)
	serve := func(h http.Handler, seed int) {
		body = strconv.AppendInt(append(body[:0], `{"k":16,"d":2,"placement":"random:16:`...), int64(seed), 10)
		body = append(body, `","routing":"udr"}`...)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":false`)) {
			b.Fatalf("analyze on a fresh key: status %d: %s", rec.Code, rec.Body)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// Serve the keys once on a throwaway server, so whatever the engines
	// build lazily on first use is in place before anything is counted.
	warm := service.New(service.Config{Workers: 1, CacheSize: 1, EnableAnalytic: true})
	for seed := 1; seed <= entries; seed++ {
		serve(warm.Handler(), seed)
	}
	warm.Close()
	// The least over the iterations, so a stray allocation elsewhere in
	// the process during one fill does not count.
	retained := uint64(math.MaxUint64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := service.New(service.Config{Workers: 1, CacheSize: entries, EnableAnalytic: true})
		h := s.Handler()
		before := heap()
		for seed := 1; seed <= entries; seed++ {
			serve(h, seed)
		}
		retained = min(retained, heap()-before)
		s.Close()
	}
	b.ReportMetric(float64(retained)/entries, "retained-B/entry")
}
