// Command torussim runs a cycle-accurate store-and-forward simulation of a
// complete exchange on a partially populated torus and reports completion
// time, peak link traffic, queueing, and latency.
//
// Usage:
//
//	torussim -k 8 -d 2 -placement linear -routing udr
//	torussim -k 6 -d 2 -placement full -routing odr -maxcycles 100000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"torusnet/internal/cliutil"
	"torusnet/internal/load"
	"torusnet/internal/simnet"
	"torusnet/internal/torus"
	"torusnet/internal/wormhole"
)

func main() {
	var (
		k         = flag.Int("k", 8, "torus radix")
		d         = flag.Int("d", 2, "torus dimensions")
		placeSpec = flag.String("placement", "linear", "placement spec (see torusload)")
		routeSpec = flag.String("routing", "odr", "routing: odr|odr-multi|udr|far")
		seed      = flag.Int64("seed", 1, "path-sampling seed")
		workers   = flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		maxCycles = flag.Int("maxcycles", 0, "abort after this many cycles (0 = unlimited)")
		compare   = flag.Bool("compare", false, "also report the exact expected E_max for context")
		switching = flag.String("switching", "store", "switching: store (packet store-and-forward) | wormhole (flit-level)")
		flits     = flag.Int("flits", 4, "wormhole: flits per packet")
		vcs       = flag.Int("vcs", 2, "wormhole: virtual channels per link (1 can deadlock)")
		bufDepth  = flag.Int("bufdepth", 2, "wormhole: flit buffer depth per VC")
		queueCap  = flag.Int("queuecap", 0, "store: bounded link queues (0 = unbounded)")
		inject    = flag.Int("inject", 0, "store: cycles between a source's injections")
		adaptive  = flag.Bool("adaptive", false, "store: congestion-aware minimal routing (ignores -routing)")
	)
	flag.Parse()

	if *switching == "wormhole" {
		if err := runWormhole(*k, *d, *placeSpec, *routeSpec, *seed, *maxCycles, *flits, *vcs, *bufDepth); err != nil {
			fmt.Fprintln(os.Stderr, "torussim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*k, *d, *placeSpec, *routeSpec, *seed, *workers, *maxCycles, *compare, *queueCap, *inject, *adaptive); err != nil {
		fmt.Fprintln(os.Stderr, "torussim:", err)
		os.Exit(1)
	}
}

func runWormhole(k, d int, placeSpec, routeSpec string, seed int64, maxCycles, flits, vcs, bufDepth int) error {
	if err := torus.Check(k, d); err != nil {
		return err
	}
	spec, err := cliutil.ParsePlacement(placeSpec)
	if err != nil {
		return err
	}
	alg, err := cliutil.ParseRouting(routeSpec)
	if err != nil {
		return err
	}
	t := torus.New(k, d)
	p, err := spec.Build(t)
	if err != nil {
		return err
	}
	st := wormhole.Run(wormhole.Config{
		Placement: p, Algorithm: alg, Seed: seed, MaxCycles: maxCycles,
		FlitsPerPacket: flits, VirtualChannels: vcs, BufferDepth: bufDepth,
	})
	fmt.Printf("%s, routing %s, wormhole F=%d V=%d B=%d\n", p, alg.Name(), flits, vcs, bufDepth)
	fmt.Println(st)
	if st.Deadlocked {
		fmt.Println("deadlock: cyclic buffer wait (try -vcs 2 with dimension-ordered routing)")
	}
	return nil
}

func run(k, d int, placeSpec, routeSpec string, seed int64, workers, maxCycles int, compare bool, queueCap, inject int, adaptive bool) error {
	if err := torus.Check(k, d); err != nil {
		return err
	}
	spec, err := cliutil.ParsePlacement(placeSpec)
	if err != nil {
		return err
	}
	alg, err := cliutil.ParseRouting(routeSpec)
	if err != nil {
		return err
	}
	t := torus.New(k, d)
	p, err := spec.Build(t)
	if err != nil {
		return err
	}

	st := simnet.Run(simnet.Config{
		Placement: p, Algorithm: alg, Seed: seed, Workers: workers, MaxCycles: maxCycles,
		QueueCapacity: queueCap, InjectInterval: inject, Adaptive: adaptive,
	})
	fmt.Printf("%s, routing %s\n", p, alg.Name())
	fmt.Printf("packets:          %d\n", st.Packets)
	fmt.Printf("cycles:           %d%s\n", st.Cycles, aborted(st))
	fmt.Printf("max link traffic: %d\n", st.MaxLinkTraffic)
	fmt.Printf("max queue length: %d\n", st.MaxQueueLen)
	fmt.Printf("total hops:       %d\n", st.TotalHops)
	fmt.Printf("latency mean/max: %.1f / %d cycles\n", st.MeanLatency, st.MaxLatency)
	fmt.Printf("throughput:       %.3f packets/cycle\n", st.Throughput())
	fmt.Printf("cycles per processor: %.3f\n", float64(st.Cycles)/float64(p.Size()))

	if compare {
		res := load.EMaxCtx(context.Background(), p, alg, load.Options{Workers: workers})
		fmt.Printf("\nexact expected E_max: %.4f (simulated peak traffic %d)\n", res.Max, st.MaxLinkTraffic)
	}
	return nil
}

func aborted(st *simnet.Stats) string {
	if st.Aborted {
		return " (ABORTED at maxcycles)"
	}
	return ""
}
