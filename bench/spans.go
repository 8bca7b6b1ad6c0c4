package bench

import (
	"time"

	"torusnet/internal/obs"
)

// spanNames are the spans torusd records today. span.<name>.self_share is
// reported for each (0 where a workload never crosses the stage).
var spanNames = []string{
	"http.request", "load.analytic", "cache.get", "flight.do", "cluster.peer_fill",
	"pool.submit", "pool.run", "core.analyze", "core.bounds", "load.compute",
	"load.pairs", "load.bases", "load.scatter", "load.merge", "compute.bounds",
	"compute.bisect", "cluster.replicate",
}

// timedSpans are the stages every workload crosses; their self-time
// median is reported, and http.request's p99 too. Percentiles of stages
// only some workloads cross would read a constant 0 on the others.
var timedSpans = []string{
	"http.request", "cache.get", "flight.do", "pool.submit", "pool.run",
	"core.analyze", "core.bounds", "load.compute", "load.pairs", "load.merge",
}

// spanMetrics records each stage's self time from the traces whose roots
// started at or after since. Traces are grouped by trace ID; the earliest
// root of a group is the client request, later roots are peer hops. A
// stage's self_share is its summed self time over the summed client-root
// durations. pool.submit's self time is the pool queue wait; http.request's
// is decode, canonicalization, and encode.
func spanMetrics(traces []obs.Trace, since time.Time, m *metricSet) {
	type root struct {
		start time.Time
		dur   time.Duration
	}
	clients := make(map[string]root)
	self := make(map[string][]time.Duration)
	total := make(map[string]time.Duration)
	for _, tr := range traces {
		var r *obs.SpanData
		for i := range tr.Spans {
			if tr.Spans[i].ParentID == 0 {
				r = &tr.Spans[i]
			}
		}
		if r == nil || r.Start.Before(since) {
			continue
		}
		if c, ok := clients[tr.TraceID]; !ok || r.Start.Before(c.start) {
			clients[tr.TraceID] = root{r.Start, time.Duration(r.DurationNS)}
		}
		for _, s := range selfTimes(tr) {
			self[s.Name] = append(self[s.Name], s.Self)
			total[s.Name] += s.Self
		}
	}
	var rootTime time.Duration
	for _, c := range clients {
		rootTime += c.dur
	}
	for _, name := range spanNames {
		m.set("span."+name+".self_share", ratio(total[name].Seconds(), rootTime.Seconds()), "1")
	}
	for _, name := range timedSpans {
		us := durationsIn(self[name], time.Microsecond)
		m.pct("span."+name+".self_us.p50", us, 0.5, "us")
		if name == "http.request" {
			m.pct("span."+name+".self_us.p99", us, 0.99, "us")
		}
	}
}
