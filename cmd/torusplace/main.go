// Command torusplace certifies a placement family optimal (or not) in the
// paper's sense: it sweeps the radix k for a fixed dimension d, measures
// E_max under the chosen routing algorithm, fits the growth exponent of
// E_max against k, and compares it with the placement-size exponent — a
// placement is optimal when both grow like k^{d−1} and the ratio
// E_max / (§4 lower bound) stays bounded.
//
// With -serve it instead boots the same HTTP service torusd exposes —
// /v1/analyze, /v1/optimize, /v1/jobs and friends — so a placement search
// can be driven from the certifier binary alone (handy on hosts where only
// torusplace is installed). The sweep flags are ignored in serve mode.
//
// Usage:
//
//	torusplace -d 3 -placement linear -routing udr -kmin 4 -kmax 10
//	torusplace -d 2 -placement full -routing odr -kmin 4 -kmax 12
//	torusplace -serve :8080 -workers 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"torusnet/internal/bounds"
	"torusnet/internal/cliutil"
	"torusnet/internal/load"
	"torusnet/internal/service"
	"torusnet/internal/stats"
	"torusnet/internal/torus"
)

func main() {
	var (
		d         = flag.Int("d", 2, "torus dimensions")
		kmin      = flag.Int("kmin", 4, "smallest radix")
		kmax      = flag.Int("kmax", 10, "largest radix")
		kstep     = flag.Int("kstep", 2, "radix step")
		placeSpec = flag.String("placement", "linear", "placement spec (see torusload)")
		routeSpec = flag.String("routing", "odr", "routing: odr|odr-multi|udr|udr-multi|far")
		workers   = flag.Int("workers", 0, "load-engine workers")
		serveAddr = flag.String("serve", "", "serve the torusd HTTP API on this address instead of sweeping (empty = sweep mode)")
	)
	flag.Parse()

	var err error
	if *serveAddr != "" {
		err = serve(*serveAddr, *workers)
	} else {
		err = run(*d, *kmin, *kmax, *kstep, *placeSpec, *routeSpec, *workers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "torusplace:", err)
		os.Exit(1)
	}
}

// serve boots the shared HTTP service — same handlers, cache, job manager,
// and metrics as torusd, minus torusd's cluster and debug trimmings —
// and drains gracefully on SIGINT/SIGTERM.
func serve(addr string, workers int) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := service.New(service.Config{AnalysisWorkers: workers, AccessLog: os.Stderr})
	fmt.Fprintf(os.Stderr, "torusplace: serving torusd API on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "torusplace: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "torusplace: stopped")
	return nil
}

func run(d, kmin, kmax, kstep int, placeSpec, routeSpec string, workers int) error {
	if kstep < 1 {
		return fmt.Errorf("kstep must be positive")
	}
	if kmin < 2 || kmax < kmin {
		return fmt.Errorf("need 2 <= kmin <= kmax")
	}
	spec, err := cliutil.ParsePlacement(placeSpec)
	if err != nil {
		return err
	}
	alg, err := cliutil.ParseRouting(routeSpec)
	if err != nil {
		return err
	}

	fmt.Printf("placement family %q, routing %s, d=%d\n\n", spec.Name(), alg.Name(), d)
	fmt.Printf("%6s %8s %12s %14s %16s %12s\n", "k", "|P|", "E_max", "E_max/|P|", "§4 bound c²k^{d-1}/8", "ratio")

	var ks, sizes, loads, ratios []float64
	for k := kmin; k <= kmax; k += kstep {
		if err := torus.Check(k, d); err != nil {
			return err
		}
		t := torus.New(k, d)
		p, err := spec.Build(t)
		if err != nil {
			return err
		}
		res := load.EMaxCtx(context.Background(), p, alg, load.Options{Workers: workers})
		kd1 := 1.0
		for i := 0; i < d-1; i++ {
			kd1 *= float64(k)
		}
		c := float64(p.Size()) / kd1
		lb := bounds.Improved(c, k, d)
		ratio := res.Max / lb
		fmt.Printf("%6d %8d %12.2f %14.4f %16.2f %12.3f\n",
			k, p.Size(), res.Max, res.Max/float64(p.Size()), lb, ratio)
		ks = append(ks, float64(k))
		sizes = append(sizes, float64(p.Size()))
		loads = append(loads, res.Max)
		ratios = append(ratios, ratio)
	}

	loadExp := stats.GrowthExponent(ks, loads)
	sizeExp := stats.GrowthExponent(ks, sizes)
	fmt.Printf("\nfitted exponents: |P| ~ k^%.2f, E_max ~ k^%.2f (optimal placement: both = d−1 = %d)\n",
		sizeExp, loadExp, d-1)
	rs := stats.Summarize(ratios)
	fmt.Printf("E_max over the §4 bound: min %.3f, mean %.3f, max %.3f\n", rs.Min, rs.Mean, rs.Max)

	switch {
	case loadExp > float64(d-1)+0.5:
		fmt.Println("\nverdict: NOT optimal — the maximum load grows superlinearly in the placement size's natural scale.")
	case rs.Max > 16:
		fmt.Println("\nverdict: load is k^{d-1}-scaled but far from the §4 bound; constants are poor.")
	default:
		fmt.Println("\nverdict: optimal in the paper's sense — E_max = Θ(k^{d-1}) with a bounded constant over the §4 lower bound.")
	}
	return nil
}
