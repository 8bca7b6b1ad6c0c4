package service

import (
	"bytes"
	"expvar"
	"net/http"
	"sort"
	"time"

	"torusnet/internal/obs"
)

// metrics is the server's observability surface: the expvar map served at
// /debug/vars (per-Server, not globally published, so tests can boot many
// servers in one process) plus fixed-bucket histograms. Both are rendered
// together in Prometheus text form at GET /metrics; cmd/torusd additionally
// publishes the expvar map into the process-global namespace.
type metrics struct {
	vars       *expvar.Map
	byEndpoint *expvar.Map

	// reqSeconds observes end-to-end request latency in the outermost
	// middleware. Buckets span 500µs (cache hits) through 10s; anything
	// past that is already in timeout territory and lands in +Inf.
	reqSeconds *obs.Histogram
	// queueWait observes how long pooled jobs sat queued before a worker
	// picked them up — the backpressure signal ahead of 429s.
	// Sub-millisecond when healthy, so buckets start at 10µs.
	queueWait *obs.Histogram
	// cacheAge observes the age of served result-cache hits; the top
	// finite bucket sits above the 10-minute default TTL so hits close
	// to expiry are still resolvable.
	cacheAge *obs.Histogram
	// peerFill observes the latency of successful cluster peer fills — one
	// intra-cluster HTTP round trip, so buckets span the same range as
	// reqSeconds minus the timeout tail.
	peerFill *obs.Histogram
	// jobSeconds observes end-to-end async search job durations, submit to
	// terminal state. Lee-sphere seeds finish in milliseconds; exhaustive
	// branch-and-bound runs for seconds, so the buckets stretch to minutes.
	jobSeconds *obs.Histogram
}

// Counter names. Pre-seeded to zero so /debug/vars always shows the full
// schema.
const (
	mRequests       = "requests"
	mErrors         = "errors"
	mPanics         = "panics"
	mQueueFull      = "queue_full"
	mTimeouts       = "timeouts"
	mCacheHits      = "cache_hits"
	mCacheMisses    = "cache_misses"
	mCoalesced      = "coalesced"
	mInFlight       = "in_flight"
	mWriteErrors    = "write_errors"
	mLatencyMSTotal = "latency_ms_total"
	mSlow           = "slow_requests"
	mPeerFills      = "peer_fills"
	mPeerFillErrors = "peer_fill_errors"
	mPricedOut      = "peer_fill_priced_out"
	mPeerHops       = "peer_hops"
	mAnalyticHits   = "analytic_hits"
	mJobsSubmitted  = "jobs_submitted"
	mJobsDone       = "jobs_done"
	mJobsFailed     = "jobs_failed"
	mJobsCancelled  = "jobs_cancelled"
	mJobsRejected   = "jobs_rejected"
	mJobsExpired    = "jobs_expired"
)

func newMetrics() *metrics {
	m := &metrics{
		vars:       new(expvar.Map).Init(),
		byEndpoint: new(expvar.Map).Init(),
		reqSeconds: obs.NewHistogram(0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10),
		queueWait:  obs.NewHistogram(0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5),
		cacheAge:   obs.NewHistogram(1, 5, 15, 60, 120, 300, 600, 900),
		peerFill:   obs.NewHistogram(0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5),
		jobSeconds: obs.NewHistogram(0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60, 300),
	}
	for _, name := range []string{
		mRequests, mErrors, mPanics, mQueueFull, mTimeouts,
		mCacheHits, mCacheMisses, mCoalesced, mInFlight,
		mWriteErrors, mLatencyMSTotal, mSlow,
		mPeerFills, mPeerFillErrors, mPricedOut, mPeerHops, mAnalyticHits,
		mJobsSubmitted, mJobsDone, mJobsFailed,
		mJobsCancelled, mJobsRejected, mJobsExpired,
	} {
		m.vars.Set(name, new(expvar.Int))
	}
	m.vars.Set("requests_by_endpoint", m.byEndpoint)
	return m
}

// add increments a top-level counter.
func (m *metrics) add(name string, delta int64) { m.vars.Add(name, delta) }

// endpoint counts one request against its route pattern.
func (m *metrics) endpoint(pattern string) { m.byEndpoint.Add(pattern, 1) }

// get reads a top-level integer counter (test helper; 0 when absent).
func (m *metrics) get(name string) int64 {
	if v, ok := m.vars.Get(name).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// endpointCounts snapshots the per-endpoint request counts with a sorted
// key list for stable /metrics output.
func (m *metrics) endpointCounts() ([]string, map[string]int64) {
	counts := make(map[string]int64)
	m.byEndpoint.Do(func(kv expvar.KeyValue) {
		if v, ok := kv.Value.(*expvar.Int); ok {
			counts[kv.Key] = v.Value()
		}
	})
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, counts
}

// promSchema maps the expvar counters onto Prometheus families in a fixed
// order, so /metrics output is stable and diffable. OBSERVABILITY.md
// documents each family.
var promSchema = []struct {
	src, name, help string
	gauge           bool
}{
	{mRequests, "torusd_requests_total", "HTTP requests received", false},
	{mErrors, "torusd_errors_total", "HTTP responses with status >= 400", false},
	{mPanics, "torusd_panics_total", "analysis panics recovered by the pool shield", false},
	{mQueueFull, "torusd_queue_full_total", "requests shed with 429 because the pool queue was full", false},
	{mTimeouts, "torusd_timeouts_total", "requests that exceeded the compute deadline", false},
	{mCacheHits, "torusd_cache_hits_total", "result-cache hits", false},
	{mCacheMisses, "torusd_cache_misses_total", "result-cache misses", false},
	{mCoalesced, "torusd_coalesced_total", "requests served by another caller's in-flight computation", false},
	{mWriteErrors, "torusd_write_errors_total", "response writes that failed mid-stream", false},
	{mLatencyMSTotal, "torusd_latency_ms_total", "summed request latency in milliseconds", false},
	{mSlow, "torusd_slow_requests_total", "requests slower than the configured slow threshold", false},
	{mPeerFills, "torusd_peer_fills_total", "cache misses served by the key's home cluster peer", false},
	{mPeerFillErrors, "torusd_peer_fill_errors_total", "peer fills lost to ring, dial, or decode failures", false},
	{mPricedOut, "torusd_peer_fill_priced_out_total", "misses of keys homed on another peer computed locally because they cost less than a fill", false},
	{mPeerHops, "torusd_peer_hops_total", "fill requests served on behalf of cluster peers", false},
	{mAnalyticHits, "torusd_analytic_hits_total", "analyze requests answered by the closed-form fast lane", false},
	{mJobsSubmitted, "torusd_jobs_submitted_total", "async search jobs accepted by /v1/optimize", false},
	{mJobsDone, "torusd_jobs_done_total", "async search jobs that completed successfully", false},
	{mJobsFailed, "torusd_jobs_failed_total", "async search jobs that failed or timed out", false},
	{mJobsCancelled, "torusd_jobs_cancelled_total", "async search jobs cancelled by DELETE /v1/jobs/{id}", false},
	{mJobsRejected, "torusd_jobs_rejected_total", "job submissions shed with 429 at the MaxJobs capacity", false},
	{mJobsExpired, "torusd_jobs_expired_total", "finished job records expired by the TTL janitor", false},
	{mInFlight, "torusd_in_flight", "requests currently being served", true},
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: the expvar counters as torusd_* families, the pool and job
// gauges, the histograms, every process-global gated obs.Counter
// (e.g. the routing-kernel pair counters), and the tracer's ring stats.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	for _, f := range promSchema {
		v := float64(s.metrics.get(f.src))
		if f.gauge {
			obs.PromGauge(&buf, f.name, f.help, v)
		} else {
			obs.PromCounter(&buf, f.name, f.help, v)
		}
	}
	keys, counts := s.metrics.endpointCounts()
	obs.PromLabeledCounter(&buf, "torusd_requests_by_endpoint_total",
		"HTTP requests by route pattern", "endpoint", keys, counts)
	obs.PromGauge(&buf, "torusd_pool_running", "pooled jobs currently executing", float64(s.pool.running.Load()))
	obs.PromGauge(&buf, "torusd_pool_queued", "pooled jobs waiting for a worker", float64(s.pool.queued.Load()))
	obs.PromGauge(&buf, "torusd_pool_utilization",
		"(running+queued)/(workers+queue capacity); at 1 the next cache miss gets 429", s.pool.utilization())
	obs.PromCounter(&buf, "torusd_pool_worker_restarts_total",
		"workers respawned after a crash", float64(s.pool.restarts.Load()))
	obs.PromCounter(&buf, "torusd_pool_worker_replacements_total",
		"workers replaced by the wedge watchdog", float64(s.pool.replacements.Load()))
	obs.PromGauge(&buf, "torusd_jobs_running", "async search jobs currently executing", float64(s.jobs.runningCount()))
	obs.PromGauge(&buf, "torusd_jobs_tracked", "job records currently tracked (running + finished, pre-TTL)", float64(s.jobs.tracked()))
	obs.PromHistogram(&buf, "torusd_request_duration_seconds",
		"end-to-end HTTP request latency", s.metrics.reqSeconds)
	obs.PromHistogram(&buf, "torusd_pool_queue_wait_seconds",
		"time pooled jobs spent queued before a worker picked them up", s.metrics.queueWait)
	obs.PromHistogram(&buf, "torusd_cache_age_seconds",
		"age of served result-cache hits", s.metrics.cacheAge)
	obs.PromHistogram(&buf, "torusd_job_duration_seconds",
		"async search job duration, submit to terminal state", s.metrics.jobSeconds)
	if cl := s.cfg.Cluster; cl != nil {
		obs.PromGauge(&buf, "torusd_cluster_peers", "cluster membership size including self",
			float64(len(cl.Status().Peers)))
		obs.PromGauge(&buf, "torusd_cluster_peers_down", "remote peers currently marked down",
			float64(cl.DownPeers()))
		obs.PromGauge(&buf, "torusd_cluster_epoch", "current membership epoch (advances on every ring swap)",
			float64(cl.Epoch()))
		obs.PromHistogram(&buf, "torusd_peer_fill_seconds",
			"latency of successful cluster peer fills", s.metrics.peerFill)
	}
	obs.PromCounters(&buf)
	if tr := s.tracer(); tr != nil {
		st := tr.Stats()
		obs.PromCounter(&buf, "torusd_traces_exported_total",
			"finished traces exported to the ring buffer", float64(st.Exported))
		obs.PromCounter(&buf, "torusd_traces_evicted_total",
			"exported traces overwritten by newer ones", float64(st.Evicted))
		obs.PromCounter(&buf, "torusd_spans_late_total",
			"spans that ended after their root exported", float64(st.Late))
		obs.PromGauge(&buf, "torusd_traces_buffered", "traces currently buffered", float64(st.Buffered))
	}
	obs.PromGauge(&buf, "torusd_uptime_seconds", "seconds since server start", time.Since(s.started).Seconds())
	w.Header().Set("Content-Type", obs.PromContentType)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.metrics.add(mWriteErrors, 1)
	}
}
