package service

import "torusnet/internal/failpoint"

// Chaos-injection sites for the serving pipeline. Site names follow the
// repo convention <package>.<component>.<operation> (DESIGN.md §10). Each
// disarmed site costs one atomic pointer load on its path.
var (
	// fpCacheGet guards result-cache reads. error → the request fails
	// (HTTP 500); partial → the read is skipped (forced miss), modeling a
	// cache that is down but survivable.
	fpCacheGet = failpoint.New("service.cache.get")
	// fpCachePut guards result-cache fills. Any armed fault skips the
	// fill: the response still succeeds, the cache just stays cold.
	fpCachePut = failpoint.New("service.cache.put")
	// fpFlightLeader fires in the singleflight leader before compute.
	// error → the leader and every coalesced follower share the failure.
	fpFlightLeader = failpoint.New("service.flight.leader")
	// fpPoolDispatch fires inside a pool worker after it picks up a job,
	// outside the per-job panic shield: a panic spec crashes the worker
	// itself (exercising crash-respawn), a sleep spec wedges it
	// (exercising the watchdog). Uses InjectHard, so error behaves like
	// panic.
	fpPoolDispatch = failpoint.New("service.pool.dispatch")
	// fpEncode fires during response encoding; any armed fault degrades
	// the response to the plain encode-failure 500.
	fpEncode = failpoint.New("service.response.encode")
	// fpJobSubmit fires in job admission, before the capacity check.
	// error → the submission fails (HTTP 500); partial → the submission is
	// shed as if the manager were at capacity (HTTP 429).
	fpJobSubmit = failpoint.New("service.jobs.submit")
	// fpJobRun fires in the job runner before the search starts. error →
	// the job reaches the failed state (the submission already answered
	// 202; the fault is only visible to pollers).
	fpJobRun = failpoint.New("service.jobs.run")
	// fpJobGC fires in the job janitor's sweep. Any armed fault skips the
	// round: finished records linger past their TTL but stay pollable —
	// expiry loss is survivable by design.
	fpJobGC = failpoint.New("service.jobs.gc")
)
