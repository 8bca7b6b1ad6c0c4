package bench

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"torusnet/internal/cliutil"
	"torusnet/internal/core"
	"torusnet/internal/load"
	"torusnet/internal/optimize"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/service"
	"torusnet/internal/torus"
)

// kernelSpec is one kernel input: a canonical placement spec on T^d_k
// under a routing algorithm.
type kernelSpec struct {
	k, d      int
	placement string
	alg       routing.Algorithm
}

// build instantiates a fresh placement with buildPlacement.
func (s kernelSpec) build() *placement.Placement {
	p, err := buildPlacement(s.k, s.d, s.placement)
	if err != nil {
		panic(err) // kernel specs are generated in canonical spelling
	}
	return p
}

// computeSpecs is the computed-engine kernel input for one routing: on
// each cold-compute torus multi:2, multi:3, diagonal (symmetry engine) and,
// except for FAR on T³₈ (see coldRoutings), two random placements (generic
// engine) — the same inputs in every workload, so kernel numbers compare
// across workloads.
func computeSpecs(seed int64, alg string) []kernelSpec {
	a, err := cliutil.ParseRouting(alg)
	if err != nil {
		panic(err)
	}
	var out []kernelSpec
	for i, t := range coldTori {
		k, d := t[0], t[1]
		s := i % k
		pls := []string{fmt.Sprintf("multi:2:%d", s), fmt.Sprintf("multi:3:%d", s), fmt.Sprintf("diagonal:%d", s)}
		if slices.Contains(coldRoutings(d), alg) {
			pls = append(pls,
				fmt.Sprintf("random:%d:%d", procs(k, d), derive(seed, 5, uint64(2*i))),
				fmt.Sprintf("random:%d:%d", procs(k, d), derive(seed, 5, uint64(2*i+1))))
		}
		for _, pl := range pls {
			out = append(out, kernelSpec{k, d, pl, a})
		}
	}
	return out
}

// timed returns how long fn took.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// kernels times the layers' public functions single-threaded (engine
// Workers = 1, as the server pins them) and records per-layer metrics.
// own is the workload's request stream (decode and ring-lookup inputs);
// scale shrinks sample counts for short runs.
func kernels(ctx context.Context, seed int64, scale float64, own []*request, m *metricSet) {
	n := func(full, floor int) int { return max(floor, int(float64(full)*scale)) }
	opts := load.Options{Workers: 1}

	// service: strict decode + canonicalization of the workload's analyze
	// bodies that the server canonicalizes (lane tori past MaxNodes are
	// answered before that step).
	var bodies [][]byte
	for _, r := range own {
		if r.path == "/v1/analyze" && procs(r.k, r.d)*r.k <= service.DefaultMaxNodes {
			bodies = append(bodies, r.body)
		}
	}
	var decode []time.Duration
	for i := 0; i < n(4000, 20) && len(bodies) > 0; i++ {
		var err error
		decode = append(decode, timed(func() { _, err = service.DecodeAnalyzeRequest(bodies[i%len(bodies)]) }))
		if err != nil {
			m.invalid(fmt.Sprintf("decode kernel: %v", err))
		}
	}
	m.pct("service.decode_us.p50", durationsIn(decode, time.Microsecond), 0.5, "us")

	// load: the Theorem 2 closed form, timed in batches of 1000 calls (one
	// call is tens of nanoseconds, below the clock's useful resolution).
	type cell struct {
		k   int
		alg string
	}
	var cells []cell
	for _, k := range hotKs {
		cells = append(cells, cell{k, "ODR"})
		if k%2 == 1 {
			cells = append(cells, cell{k, "ODR-multi"})
		}
	}
	var analytic []float64
	sum := 0.0
	for b := 0; b < n(200, 20); b++ {
		d := timed(func() {
			for i := 0; i < 1000; i++ {
				c := cells[i%len(cells)]
				ev, _ := load.AnalyticEMax(c.k, 3, 1, c.alg, true)
				sum += ev.EMax
			}
		})
		analytic = append(analytic, float64(d.Nanoseconds())/1000)
	}
	runtime.KeepAlive(sum)
	m.pct("load.analytic_ns.p50", sorted(analytic), 0.5, "ns")

	var all []kernelSpec
	for _, alg := range routings {
		specs := computeSpecs(seed, alg)
		all = append(all, specs...)
		var ds []time.Duration
		for pass := 0; pass < n(4, 1); pass++ {
			for _, s := range specs {
				p := s.build()
				ds = append(ds, timed(func() { load.ComputeCtx(ctx, p, s.alg, opts) }))
			}
		}
		m.pct("load.compute_us."+alg+".p50", durationsIn(ds, time.Microsecond), 0.5, "us")
	}

	// Generic engine over the symmetry engine on the symmetric inputs.
	var generic, symmetric time.Duration
	for _, alg := range []string{"odr", "udr"} {
		for _, s := range computeSpecs(seed, alg) {
			if s.placement[0] == 'r' {
				continue
			}
			p := s.build()
			symmetric += timed(func() { load.ComputeCtx(ctx, p, s.alg, opts) })
			p = s.build()
			generic += timed(func() { load.ComputeCtx(ctx, p, s.alg, load.Options{Workers: 1, FastPath: load.FastPathOff}) })
		}
	}
	m.set("load.generic_over_symmetry", ratio(generic.Seconds(), symmetric.Seconds()), "1")

	// The degraded-answer estimator against the exact engine on T³₈ UDR.
	var mc []time.Duration
	var mcTotal, exactTotal time.Duration
	for i := 0; i < n(30, 1); i++ {
		s := kernelSpec{8, 3, fmt.Sprintf("random:64:%d", derive(seed, 6, uint64(i))), routing.UDR{}}
		p := s.build()
		d := timed(func() { load.MonteCarlo(p, s.alg, 16, int64(i), opts) })
		mc = append(mc, d)
		mcTotal += d
		p = s.build()
		exactTotal += timed(func() { load.ComputeCtx(ctx, p, s.alg, opts) })
	}
	m.pct("load.montecarlo_ms.p50", durationsIn(mc, time.Millisecond), 0.5, "ms")
	m.set("load.montecarlo_over_exact", ratio(mcTotal.Seconds(), exactTotal.Seconds()), "1")

	// core: the full analysis pipeline over every routing's inputs.
	var analyze []time.Duration
	for i := 0; i < n(2000, 20); i++ {
		s := all[i%len(all)]
		p := s.build()
		analyze = append(analyze, timed(func() { core.AnalyzeCtx(ctx, p, s.alg, opts) }))
	}
	us := durationsIn(analyze, time.Microsecond)
	m.pct("core.analyze_us.p50", us, 0.5, "us")
	m.pct("core.analyze_us.p99", us, 0.99, "us")

	optimizers(ctx, scale, n, m)

	// cluster: ring lookups over the workload's keys on a three-peer ring,
	// timed in batches of 256.
	ring := ownerRing()
	var owners []float64
	for b := 0; b < n(200, 20); b++ {
		d := timed(func() {
			for i := 0; i < 256; i++ {
				if _, err := ring.Owners(own[(b*256+i)%len(own)].key); err != nil {
					m.invalid(err.Error())
				}
			}
		})
		owners = append(owners, float64(d.Nanoseconds())/256)
	}
	m.pct("cluster.owners_ns.p50", sorted(owners), 0.5, "ns")
}

// optimizers times the three search strategies on the job-cycle problems,
// annealing with the job cycle's seeds. A run shorter than fullSeconds
// caps the branch-and-bound search, which then proves nothing but still
// gives a node rate, and shortens the annealing schedule.
func optimizers(ctx context.Context, scale float64, n func(full, floor int) int, m *metricSet) {
	t2, t3 := torus.New(8, 2), torus.New(8, 3)
	bnbCfg := optimize.Config{Size: 8, Workers: 1}
	if scale < 1 {
		bnbCfg.MaxVisited = int64(n(1_000_000, 1000))
	}
	var bnb, anneal, lee []float64
	for i := 0; i < n(5, 1); i++ {
		var res *optimize.Result
		var err error
		d := timed(func() { res, err = optimize.BranchAndBound(ctx, t2, routing.ODR{}, bnbCfg) })
		if err != nil {
			m.invalid(err.Error())
			break
		}
		if bnbCfg.MaxVisited == 0 && (!res.Proven || res.BestEMax != 3) {
			m.invalid(fmt.Sprintf("bnb kernel on T²₈: proven=%v e_max=%v, want proven 3", res.Proven, res.BestEMax))
			break
		}
		bnb = append(bnb, float64(res.Visited)/d.Seconds())

		start, err := optimize.LeeSeed(t3, 64, routing.ODR{}, 1)
		if err != nil {
			m.invalid(err.Error())
			break
		}
		cfg := optimize.Config{Size: 64, Steps: n(200, 10), Seed: int64(i), Workers: 1, Start: start.Best.Nodes()}
		d = timed(func() { res, err = optimize.AnnealCtx(ctx, t3, routing.ODR{}, cfg) })
		if err != nil {
			m.invalid(err.Error())
			break
		}
		anneal = append(anneal, float64(res.Steps)/d.Seconds())
	}
	for i := 0; i < n(40, 3); i++ {
		var err error
		d := timed(func() { _, err = optimize.LeeSeed(t3, 64, routing.ODR{}, 1) })
		if err != nil {
			m.invalid(err.Error())
			break
		}
		lee = append(lee, float64(d)/float64(time.Millisecond))
	}
	m.set("optimize.bnb_nodes_per_s", median(bnb), "1/s")
	m.set("optimize.anneal_moves_per_s", median(anneal), "1/s")
	m.set("optimize.leeseed_ms", median(lee), "ms")
}
