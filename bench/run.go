// Package bench is torusbench's engine: it boots torusd in-process (one
// service.New node, or a three-node internal/cluster/harness cluster),
// drives one of four seeded workloads with an open-loop fixed-rate
// generator, checks every answer against the paper, and measures the
// end-to-end metrics (untraced) or the per-layer metrics (kernel timings,
// /debug/vars counter deltas, and a separate traced run). bench/README.md
// defines every metric and workload.
package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"torusnet/internal/obs"
	"torusnet/internal/service"
)

// Workload is one seeded traffic mix with its fixed open-loop rate. Rates
// are constants, set once at 18–30% of each workload's closed-loop peak on
// the reference machine (bench/README.md lists the peaks), and never
// calibrated at run time.
type Workload struct {
	Name string
	// Rate is the open-loop arrival rate of the mix, requests per second.
	Rate float64
	// Nodes is 1 (service.New) or 3 (harness cluster).
	Nodes int
	// Churn kills the rank-1 key's primary owner, evicts it from the
	// survivors' rings, and joins a fresh node during every open-loop
	// phase, taking the cluster to membership epoch 3.
	Churn bool
	// Jobs submits optimize jobs at jobRate during every open-loop phase
	// and polls them every jobPollEvery through the same senders.
	Jobs bool
	mix  func(seed int64) mix
}

// Workloads lists the benchmark's workloads; BENCHMARK.json names the same
// four and records why each exists.
var Workloads = []Workload{
	{Name: "hot-mix", Rate: 4500, Nodes: 1, mix: hotMix},
	{Name: "cold-compute", Rate: 800, Nodes: 1, mix: coldMix},
	{Name: "cluster-churn", Rate: 1400, Nodes: 3, Churn: true, mix: clusterMix},
	{Name: "optimize-contend", Rate: 500, Nodes: 1, Jobs: true, mix: coldMix},
}

// WorkloadByName looks a workload up.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

const (
	// fullSeconds is the run length the sample counts are sized for;
	// shorter runs scale them down and are flagged invalid where a
	// percentile loses its support.
	fullSeconds = 20
	// Shares of the run length: the end-to-end run's open-loop phase, and
	// the per-layer run's untraced counter phase, closed-loop phase, and
	// traced phase (the kernel timings take the rest).
	openShare                               = 0.85
	countersShare, closedShare, tracedShare = 0.3, 0.2, 0.2
	// setupReps is how many times a full-length end-to-end run sets up
	// (shorter runs, at least once, proportionally fewer); setup_s is the
	// median.
	setupReps = 9
	// closedWindows is how many equal slices the closed-loop phase is cut
	// into; gen.peak_rps is the median of their rates.
	closedWindows = 5
	// jobRate is the optimize-contend job submission rate, per second.
	jobRate = 2
	// probeJobs is the serial job probe's length at full scale: six passes
	// of the job cycle, so twelve annealing jobs around the median.
	probeJobs = 30
	// maxLateP99 bounds the generator's p99 lateness: past it the
	// generator, not the server, set the pace, and the run is invalid.
	maxLateP99 = 250 * time.Millisecond
)

// Config selects one run.
type Config struct {
	Workload Workload
	Seed     int64
	// Seconds is the measured run length.
	Seconds float64
	// Trace selects the per-layer run instead of the end-to-end run.
	Trace bool
}

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome. It marshals to the benchmark's result line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Invalid says why the measurements cannot be trusted (nil when the
	// run is valid): an unsupported percentile, a generator that fell
	// behind its schedule, more than nproc requests in flight, or an
	// evicted trace.
	Invalid []string `json:"-"`
	// Errors are the first failures seen, for the report.
	Errors []string `json:"-"`
	// Checked is how many distinct sampled answers were re-derived after
	// timing.
	Checked int `json:"-"`
}

// metricSet collects a run's metrics and the reasons it is invalid.
type metricSet struct {
	m   map[string]Metric
	bad []string
}

func (s *metricSet) set(name string, v float64, unit string) { s.m[name] = Metric{v, unit} }

func (s *metricSet) invalid(reason string) { s.bad = append(s.bad, reason) }

// pct records a percentile, invalidating the run when the sample does not
// support it.
func (s *metricSet) pct(name string, sorted []float64, q float64, unit string) {
	v, ok := percentile(sorted, q)
	if !ok {
		s.invalid(fmt.Sprintf("%s: %d samples do not support it", name, len(sorted)))
	}
	s.set(name, v, unit)
}

// run is the state one benchmark run shares across its phases.
type run struct {
	cfg   Config
	w     Workload
	nproc int
	scale float64
	c     *client
	t     *tally
	m     *metricSet
}

// Run executes one run of cfg.Workload. An error means the run could not
// be carried out (a node failed to boot, a phase timed out); wrong answers
// and failed requests are reported in the Result instead.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	nproc := runtime.GOMAXPROCS(0)
	r := &run{
		cfg:   cfg,
		w:     cfg.Workload,
		nproc: nproc,
		scale: min(1, cfg.Seconds/fullSeconds),
		c:     newClient(nproc),
		t:     &tally{},
		m:     &metricSet{m: make(map[string]Metric)},
	}
	defer r.c.close()
	var checked int
	var err error
	if cfg.Trace {
		err = r.layers(ctx)
	} else {
		checked, err = r.endToEnd(ctx)
	}
	if err != nil {
		return nil, err
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	return &Result{
		Correct:   r.t.wrong.Load() == 0,
		Attempted: r.t.attempted.Load(),
		Failed:    r.t.failed.Load(),
		Metrics:   r.m.m,
		Invalid:   r.m.bad,
		Errors:    r.t.errs,
		Checked:   checked,
	}, nil
}

// serviceConfig is torusd's default configuration: library defaults plus
// the analytic lane, without the access log.
func serviceConfig() service.Config { return service.Config{EnableAnalytic: true} }

// seconds converts a share of the run length to a duration.
func (r *run) seconds(share float64) time.Duration {
	return time.Duration(share * r.cfg.Seconds * float64(time.Second))
}

// schedule lays out an open-loop phase of length d: the mix at the
// workload's rate and, for job workloads, a submit every 1/jobRate seconds
// and a poll every jobPollEvery, merged in time order.
func (r *run) schedule(m mix, d time.Duration) []op {
	n := int(r.w.Rate * d.Seconds())
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, op{at: time.Duration(float64(i) / r.w.Rate * float64(time.Second)), req: m()})
	}
	if !r.w.Jobs {
		return ops
	}
	for i := 0; time.Duration(i)*time.Second/jobRate < d; i++ {
		// A job's latency ends on a poll. Each pass through the job cycle
		// offsets its submits from the poll grid by another tenth of the
		// interval (0, 7, 4, 1, ... tenths), so the latencies of one job
		// type do not all round up by the same amount.
		pass := i / jobCycleLen
		at := time.Duration(i)*time.Second/jobRate + time.Duration(pass*7%10)*jobPollEvery/10
		ops = append(ops, op{at: at, kind: opSubmit, job: jobCycle(i)})
	}
	for at := jobPollEvery; at < d; at += jobPollEvery {
		ops = append(ops, op{at: at, kind: opPoll})
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].at < ops[b].at })
	return ops
}

// warmCount is the warm-up batch: one second of the workload's rate,
// scaled down with the run length.
func (r *run) warmCount() int { return max(r.nproc, int(r.w.Rate*r.scale)) }

// phase runs one open-loop phase on s's deployment (with the membership
// events on churn workloads), then waits for its jobs to finish.
func (r *run) phase(ctx context.Context, s *sender, ops []op, d time.Duration, res *openResult) error {
	var wg sync.WaitGroup
	var churnErr error
	if r.w.Churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			churnErr = churn(ctx, s.dep, clusterKey(r.cfg.Seed, 0).key, d)
		}()
	}
	s.openLoop(ctx, r.nproc, ops, res)
	wg.Wait()
	if err := s.drainJobs(ctx, jobPollEvery); err != nil {
		return err
	}
	return churnErr
}

// newOpenResult preallocates an open-loop phase's per-op measurements.
func newOpenResult(ops []op) *openResult {
	return &openResult{latency: make([]time.Duration, len(ops)), late: make([]time.Duration, len(ops))}
}

// churn runs the membership events of an open-loop phase of length d:
// kill the primary owner of the rank-1 key at d/3, evict it from the
// survivors' rings at d/2 (epoch 2), join a fresh node at 2d/3 (epoch 3).
func churn(ctx context.Context, dep *deployment, key string, d time.Duration) error {
	start := time.Now()
	victim, err := dep.nw.Owner(key)
	if err != nil {
		return err
	}
	steps := []struct {
		at time.Duration
		do func() error
	}{
		{d / 3, func() error { return dep.kill(ctx, victim) }},
		{d / 2, func() error { return dep.nw.Leave(ctx, victim) }},
		{2 * d / 3, func() error { return dep.join(ctx) }},
	}
	for _, st := range steps {
		if err := sleepUntil(ctx, start.Add(st.at)); err != nil {
			return err
		}
		if err := st.do(); err != nil {
			return fmt.Errorf("bench: churn: %w", err)
		}
	}
	if e := dep.minEpoch(); e != 3 {
		return fmt.Errorf("bench: churn left the cluster at epoch %d, want 3", e)
	}
	return nil
}

// latencies returns the mix requests' latencies, sorted, in ms: from each
// request's scheduled send time, or, with fromSend, from the moment it was
// actually sent. A failed request keeps its failed latency either way.
func (o *openResult) latencies(ops []op, fromSend bool) []float64 {
	var ds []time.Duration
	for i, op := range ops {
		if op.kind != opCall {
			continue
		}
		d := o.latency[i]
		if fromSend && d != failedLatency {
			d -= o.late[i]
		}
		ds = append(ds, d)
	}
	return durationsIn(ds, time.Millisecond)
}

// lateness returns the executed ops' lateness, sorted, in µs.
func (o *openResult) lateness() []float64 {
	var ds []time.Duration
	for _, d := range o.late {
		if d >= 0 {
			ds = append(ds, d)
		}
	}
	return durationsIn(ds, time.Microsecond)
}

// liveHeap is the heap still reachable after two full collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// endToEnd is the untraced run: setup_s (median of several boots, each
// to all-ready plus an answered warm-up batch) and the open-loop phase
// (alloc_kib_per_req; live_heap_mb after it). Sampled answers are
// re-derived after timing.
func (r *run) endToEnd(ctx context.Context) (int, error) {
	m := r.w.mix(r.cfg.Seed)
	warm := draw(m, r.warmCount())
	openDur := r.seconds(openShare)
	ops := r.schedule(m, openDur)
	res := newOpenResult(ops)
	// Every 16th key is sampled; sizing the map for twice that up front
	// keeps its growth out of the live heap measured below.
	samples := make(map[string]sampled, (len(warm)+len(ops))/8)
	base := liveHeap()

	var s *sender
	var setups []float64
	reps := max(1, int(setupReps*r.scale))
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		dep, err := boot(ctx, r.c, r.w.Nodes, serviceConfig(), nil)
		if err != nil {
			return 0, err
		}
		s = newSender(r.c, dep, r.t, samples)
		s.batch(ctx, r.nproc, warm)
		setups = append(setups, time.Since(t0).Seconds())
		if rep < reps-1 {
			if err := dep.stop(ctx); err != nil {
				return 0, err
			}
		}
	}
	defer func() {
		if err := s.dep.stop(ctx); err != nil {
			r.t.fail(false, err)
		}
	}()
	r.m.set("setup_s", median(setups), "s")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := r.phase(ctx, s, ops, openDur, res); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	heap := float64(liveHeap()) - float64(base)
	runtime.KeepAlive(warm)
	// alloc_kib_per_req is the whole process's allocation over the phase
	// per mix request (job submits and polls add bytes, not requests): the
	// request path's cost in garbage-collector work. Unlike a latency, it
	// does not move with the shared host's speed, so it is the gated cost
	// of a request; the latencies are per-layer metrics.
	calls := len(res.latencies(ops, true))
	r.m.set("alloc_kib_per_req", ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(calls)), "KiB")
	r.m.set("live_heap_mb", heap/(1<<20), "MiB")
	r.checkGenerator(s, res)

	checked, wrong := verifySamples(ctx, s.samples, r.w.Nodes > 1)
	for _, err := range wrong {
		r.t.fail(true, err)
	}
	return checked, nil
}

// checkGenerator invalidates a run whose generator broke its own rules.
func (r *run) checkGenerator(s *sender, res *openResult) {
	if n := s.inflightMax.Load(); n > int64(r.nproc) {
		r.m.invalid(fmt.Sprintf("%d requests in flight, more than nproc = %d", n, r.nproc))
	}
	if late, _ := percentile(res.lateness(), 0.99); late > float64(maxLateP99/time.Microsecond) {
		r.m.invalid(fmt.Sprintf("generator p99 lateness %.0fµs exceeds %v", late, maxLateP99))
	}
}

// layers is the per-layer run: an untraced open-loop phase whose
// /debug/vars deltas and compute hook give the counter metrics, followed by
// a closed-loop phase (gen.peak_rps) and a serial job probe
// (gen.job_p50_s) on the same deployment, a traced
// open-loop phase on a fresh deployment whose span trees give each
// stage's self time, and the kernel timings.
func (r *run) layers(ctx context.Context) error {
	m := r.w.mix(r.cfg.Seed)
	warm := draw(m, r.warmCount())
	countersDur, tracedDur := r.seconds(countersShare), r.seconds(tracedShare)
	ops := r.schedule(m, countersDur)
	closed := draw(m, int(4*r.w.Rate*r.seconds(closedShare).Seconds())+r.nproc)
	tracedOps := r.schedule(m, tracedDur)

	untraced, err := r.counterPhase(ctx, warm, ops, closed, countersDur)
	if err != nil {
		return err
	}
	traced, err := r.tracedPhase(ctx, warm, tracedOps, tracedDur)
	if err != nil {
		return err
	}
	r.m.set("obs.trace_overhead", ratio(traced, untraced), "1")

	var own []*request
	for _, o := range ops {
		if o.kind == opCall {
			own = append(own, o.req)
		}
	}
	kernels(ctx, r.cfg.Seed, r.scale, own, r.m)
	return nil
}

// computeCounter counts pooled computations per key through the OnCompute
// hook.
type computeCounter struct {
	mu    sync.Mutex
	on    bool
	total int
	keys  map[string]bool
}

func (cc *computeCounter) observe(key string) {
	cc.mu.Lock()
	if cc.on {
		cc.total++
		cc.keys[key] = true
	}
	cc.mu.Unlock()
}

func (cc *computeCounter) start() {
	cc.mu.Lock()
	cc.on = true
	cc.mu.Unlock()
}

// counterPhase runs the untraced open-loop phase and records the counter
// deltas and generator metrics, then measures the closed-loop peak and runs
// the job probe on the same deployment. It returns the open-loop phase's
// p50 latency.
func (r *run) counterPhase(ctx context.Context, warm []*request, ops []op, closed []*request, d time.Duration) (float64, error) {
	cc := &computeCounter{keys: make(map[string]bool)}
	dep, err := boot(ctx, r.c, r.w.Nodes, serviceConfig(), cc.observe)
	if err != nil {
		return 0, err
	}
	s := newSender(r.c, dep, r.t, make(map[string]sampled))
	s.batch(ctx, r.nproc, warm)
	before, sent := dep.counters(), r.t.attempted.Load()
	cc.start()
	res := newOpenResult(ops)
	err = r.phase(ctx, s, ops, d, res)
	after := dep.counters()
	sent = r.t.attempted.Load() - sent
	if err == nil {
		peak := s.closedLoop(ctx, r.nproc, closed, r.seconds(closedShare), closedWindows)
		r.m.set("gen.peak_rps", median(peak), "1/s")
		probe := newSender(r.c, dep, r.t, make(map[string]sampled))
		if err = probe.jobProbe(ctx, max(1, int(probeJobs*r.scale))); err == nil {
			r.m.pct("gen.job_p50_s", durationsIn(probe.jobs.latencies(), time.Second), 0.5, "s")
		}
	}
	err = errors.Join(err, dep.stop(ctx))
	if err != nil {
		return 0, err
	}
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	hits, misses := delta("cache_hits"), delta("cache_misses")
	cc.mu.Lock()
	computes, keys := float64(cc.total), float64(len(cc.keys))
	cc.mu.Unlock()
	r.m.set("service.cache.hit_ratio", ratio(hits, hits+misses), "1")
	r.m.set("service.analytic.share", ratio(delta("analytic_hits"), float64(sent)), "1")
	r.m.set("service.flight.coalesced_share", ratio(delta("coalesced"), misses), "1")
	r.m.set("service.jobs_done", delta("jobs_done"), "count")
	r.m.set("service.jobs_rejected", delta("jobs_rejected"), "count")
	r.m.set("cluster.peer_fill_share", ratio(delta("peer_fills"), misses), "1")
	r.m.set("cluster.peer_fill_errors", delta("peer_fill_errors"), "count")
	r.m.set("cluster.failovers", delta("cluster.failovers"), "count")
	r.m.set("cluster.replica_puts_per_compute", ratio(delta("cluster.replica_puts"), computes), "1")
	r.m.set("cluster.hot_hit_share", ratio(delta("hot_hits"), float64(sent)), "1")
	r.m.set("cluster.computes_per_key", ratio(computes, keys), "1")

	// gen.p50_ms runs from the moment each request was sent. On a shared
	// host, CPU taken by neighbours backs the open-loop queue up, and a
	// median from the scheduled send time (gen.sched_p50_ms) then measures
	// that backlog more than the server; gen.p99_ms keeps the scheduled
	// time so that stalls stay charged.
	fromSend := res.latencies(ops, true)
	r.m.pct("gen.p50_ms", fromSend, 0.5, "ms")
	lat := res.latencies(ops, false)
	r.m.pct("gen.sched_p50_ms", lat, 0.5, "ms")
	r.m.pct("gen.p99_ms", lat, 0.99, "ms")
	r.m.pct("gen.late_us.p99", res.lateness(), 0.99, "us")
	r.m.set("gen.inflight_max", float64(s.inflightMax.Load()), "count")
	r.m.set("gen.requests", float64(sent), "count")
	r.checkGenerator(s, res)
	p50, _ := percentile(fromSend, 0.5)
	return p50, nil
}

// tracedPhase repeats the open-loop phase on a fresh deployment whose
// nodes share one tracer, sized so no trace of the phase is evicted, and
// records each stage's self time. It returns the traced p50 latency.
func (r *run) tracedPhase(ctx context.Context, warm []*request, ops []op, d time.Duration) (float64, error) {
	perRequest := 1
	if r.w.Nodes > 1 {
		perRequest = 4 // client root, peer fill hop, replica put, and slack
	}
	tracer := obs.NewTracer(2*perRequest*(len(ops)+len(warm)) + 1024)
	cfg := serviceConfig()
	cfg.Tracer = tracer
	dep, err := boot(ctx, r.c, r.w.Nodes, cfg, nil)
	if err != nil {
		return 0, err
	}
	s := newSender(r.c, dep, r.t, make(map[string]sampled))
	s.batch(ctx, r.nproc, warm)
	since := time.Now()
	res := newOpenResult(ops)
	err = r.phase(ctx, s, ops, d, res)
	err = errors.Join(err, dep.stop(ctx))
	if err != nil {
		return 0, err
	}
	if st := tracer.Stats(); st.Evicted > 0 {
		r.m.invalid(fmt.Sprintf("tracer evicted %d traces", st.Evicted))
	}
	spanMetrics(tracer.Snapshot(0), since, r.m)
	p50, _ := percentile(res.latencies(ops, true), 0.5)
	return p50, nil
}
