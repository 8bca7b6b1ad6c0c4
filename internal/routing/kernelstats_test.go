package routing

import (
	"testing"

	"torusnet/internal/obs"
	"torusnet/internal/torus"
)

// TestKernelCountersRecordPairs checks each counted kernel ticks its own
// counter exactly once per pair when the gate is on and not at all when
// off.
func TestKernelCountersRecordPairs(t *testing.T) {
	tr := torus.New(4, 2)
	loads := make([]float64, tr.Edges())
	sc := NewPairScratch(tr)
	kernels := []struct {
		alg Algorithm
		c   *obs.Counter
	}{
		{ODR{}, statPairsODR},
		{ODRMulti{}, statPairsODRMulti},
		{UDR{}, statPairsUDR},
		{UDRMulti{}, statPairsUDRMulti},
	}
	for _, k := range kernels {
		before := k.c.Value()
		k.alg.AccumulatePair(tr, 0, 5, 1, loads, sc)
		if k.c.Value() != before {
			t.Errorf("%T: counter moved with the gate off", k.alg)
		}
	}
	obs.SetCountersEnabled(true)
	defer obs.SetCountersEnabled(false)
	for _, k := range kernels {
		before := k.c.Value()
		k.alg.AccumulatePair(tr, 0, 5, 1, loads, sc)
		k.alg.AccumulatePair(tr, 1, 6, 1, loads, sc)
		if got := k.c.Value() - before; got != 2 {
			t.Errorf("%T: counter advanced by %d for 2 pairs", k.alg, got)
		}
	}
}

// TestKernelCounterZeroAllocs pins the acceptance criterion's allocation
// half: the instrumented ODR kernel stays at 0 allocs/op with the gate off
// and on.
func TestKernelCounterZeroAllocs(t *testing.T) {
	tr := torus.New(8, 2)
	loads := make([]float64, tr.Edges())
	sc := NewPairScratch(tr)
	run := func() {
		ODR{}.AccumulatePair(tr, 0, 27, 1, loads, sc)
	}
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("gate off: ODR kernel allocates %v/op, want 0", n)
	}
	obs.SetCountersEnabled(true)
	defer obs.SetCountersEnabled(false)
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("gate on: ODR kernel allocates %v/op, want 0", n)
	}
}

// BenchmarkODRKernelCounterOverhead quantifies the other half: run with
// -bench to compare the instrumented kernel against the raw gate cost. The
// disabled gate is one atomic load + branch (BenchmarkCounterGateOnly), a
// few ns against the kernel's own cost per pair.
func BenchmarkODRKernelCounterOverhead(b *testing.B) {
	tr := torus.New(8, 2)
	loads := make([]float64, tr.Edges())
	sc := NewPairScratch(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ODR{}.AccumulatePair(tr, 0, 27, 1, loads, sc)
	}
}

// BenchmarkCounterGateOnly isolates exactly what the instrumentation added
// to the kernel: one disabled Counter.Inc.
func BenchmarkCounterGateOnly(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		statPairsODR.Inc()
	}
}
