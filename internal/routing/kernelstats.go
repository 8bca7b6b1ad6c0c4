package routing

import "torusnet/internal/obs"

// Per-kernel pair counters for the ODR, ODR-multi, UDR and UDR-multi pair
// kernels. They count every pair a kernel accumulates, for every load
// engine and the placement optimizer alike. They sit on the hottest path
// in the repository — one Inc per (source, dest) pair, |V|·(|V|−1) calls
// per exact load computation — so they use obs's gated Counter: with the
// gate off (the default, and the state in every benchmark and test) an Inc
// is a single atomic load and branch, and the acceptance benchmark
// BenchmarkODRKernelCounterOverhead pins that cost at 0 allocs/op and a
// few ns/op on the whole-kernel scale. torusd enables the gate at
// boot so /metrics can report how many pairs each kernel accumulated.
var (
	statPairsODR = obs.NewCounter("torusnet_routing_odr_pairs_total",
		"pairs accumulated by the ODR in-place kernel")
	statPairsODRMulti = obs.NewCounter("torusnet_routing_odr_multi_pairs_total",
		"pairs accumulated by the ODR-multi in-place kernel")
	statPairsUDR = obs.NewCounter("torusnet_routing_udr_pairs_total",
		"pairs accumulated by the UDR in-place kernel")
	statPairsUDRMulti = obs.NewCounter("torusnet_routing_udr_multi_pairs_total",
		"pairs accumulated by the UDR-multi in-place kernel")
)
