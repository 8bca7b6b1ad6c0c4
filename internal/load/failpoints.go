package load

import "torusnet/internal/failpoint"

// Chaos-injection sites for the load engines. Compute has no error return
// (its inputs are validated upstream), so faults use InjectHard: an armed
// error or panic spec surfaces as a panic, which the service's worker-pool
// shield converts to a 500 without taking the process down. Disarmed, each
// site costs one atomic pointer load per Compute call.
var (
	// fpComputeDispatch fires at the top of Compute, before engine
	// selection — a fault here models the whole analysis blowing up or
	// stalling (sleep spec) before any work is done.
	fpComputeDispatch = failpoint.New("load.compute.dispatch")
	// fpComputeMerge fires in the generic engine between the workers'
	// wg.Wait and the partial-accumulator merge, and in the ring-flow
	// engine between its ring sweeps and its summary pass — a fault here
	// models a crash after the fan-out completed but before results are
	// combined.
	fpComputeMerge = failpoint.New("load.compute.merge")
	// fpAnalyticDispatch fires in AnalyticAnswer, before the torusd lane
	// consults the theorem map. Unlike the sites above it is soft: an
	// armed error makes the lane decline, so the request falls through to
	// the computed engines — the degradation path a lane bug would take.
	fpAnalyticDispatch = failpoint.New("load.analytic.dispatch")
)
