// Command torusd serves the torusnet analyses over HTTP: exact E_max loads
// (POST /v1/analyze), the paper's lower bounds (POST /v1/bounds), bisection
// constructions (POST /v1/bisect), async placement searches
// (POST /v1/optimize → 202 + job id, polled at GET /v1/jobs/{id}, cancelled
// with DELETE /v1/jobs/{id}), and the E1–E33 experiment registry
// (GET /v1/experiments, POST /v1/experiments/{id}), plus /healthz, expvar
// metrics at /debug/vars, and Prometheus text metrics at /metrics.
// Identical requests are cached (LRU + TTL) and concurrent identical
// requests are coalesced into one computation. Searches run on their own
// goroutines outside the request pool, bounded by -max-jobs (429 past it),
// deadlined by -job-timeout, with finished records pollable for -job-ttl;
// see OPTIMIZE.md for the operator guide.
//
// Every request carries a W3C traceparent ID (incoming honored, otherwise
// minted) that is echoed on the response and in access logs; per-request
// span trees are buffered in a ring readable as JSON at /debug/traces on
// the debug sidecar. See OBSERVABILITY.md for the full operator guide.
//
// Usage:
//
//	torusd -addr :8080
//	torusd -addr 127.0.0.1:8080 -workers 8 -queue 32 -cache 1024 -ttl 10m
//	torusd -addr :8080 -debug-addr 127.0.0.1:6060   # pprof + failpoints + /debug/traces sidecar
//	torusd -addr :8080 -no-analytic                 # disable the closed-form fast lane
//	torusd -addr :8080 -slow-threshold 250ms        # warn-log slow requests
//	torusd -failpoints 'service.cache.get=error'    # boot with chaos faults armed
//	torusd -cluster -self http://10.0.0.1:8080 \
//	       -peers http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080
//	torusd -cluster -self http://10.0.0.1:8080 \
//	       -peers-file /etc/torusd/peers           # SIGHUP re-reads the peers file
//
// Cluster mode shards canonical cache keys across the -peers membership on
// a consistent-hash ring: a local cache miss for a key homed on another
// peer is fetched from that peer (falling back to local compute if it
// cannot answer), so the cluster computes each answer once globally. Each
// key has exactly one owner; when it dies, survivors compute its keys
// locally until it is evicted, after which the ring's next peer owns them
// and computes each lost key once. Membership is dynamic:
// POST /debug/cluster/membership ({"join": url} / {"leave": url} /
// {"peers": [...]}) on the debug sidecar swaps the ring at a new epoch, and
// with -peers-file a SIGHUP re-reads the file and applies it the same way.
// /readyz reports readiness (ring joined) plus the current epoch; /healthz
// stays pure liveness. The debug sidecar gains /debug/cluster (ring status,
// and ?key=... for a key's owner).
//
// Every computed /v1/analyze answer is exact and runs in the bounded pool:
// under sustained pressure a cache miss queues, and once the -queue is full
// it answers 429 with Retry-After (cached answers are still served). A
// watchdog replaces pool workers wedged past -wedge-timeout.
// Fault-injection sites (see internal/failpoint) are armed via the
// -failpoints flag, the TORUSNET_FAILPOINTS environment variable, or at
// runtime through /debug/failpoints on the debug sidecar — never on the
// public API address.
//
// Shutdown is graceful: SIGINT/SIGTERM stop intake and drain in-flight
// analyses before the process exits.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"torusnet/internal/cluster"
	"torusnet/internal/failpoint"
	"torusnet/internal/obs"
	"torusnet/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "analysis pool goroutines (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "pending-request queue depth (0 = 2×workers)")
		analysisW  = flag.Int("analysis-workers", 0, "load-engine workers per analysis (0 = 1)")
		cacheSize  = flag.Int("cache", 0, "result cache capacity in entries (0 = 512)")
		cacheTTL   = flag.Duration("ttl", 0, "result cache TTL (0 = 10m, negative = no expiry)")
		timeout    = flag.Duration("timeout", 0, "per-request compute deadline (0 = 60s)")
		maxNodes   = flag.Int("max-nodes", 0, "k^d ceiling per request (0 = 4096)")
		maxJobs    = flag.Int("max-jobs", 0, "concurrent async search jobs; submissions past it answer 429 (0 = 4)")
		jobTTL     = flag.Duration("job-ttl", 0, "how long finished job records stay pollable (0 = 15m, negative = forever)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job search deadline (0 = 5m)")
		noAnalytic = flag.Bool("no-analytic", false, "disable the closed-form analytic fast lane for /v1/analyze")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof and /debug/failpoints on this separate address (empty = disabled)")
		wedge      = flag.Duration("wedge-timeout", 0, "watchdog deadline before a wedged pool worker is replaced (0 = 2×timeout, negative = no watchdog)")
		failpoints = flag.String("failpoints", "", "semicolon-separated site=spec failpoints to arm at boot (see /debug/failpoints for sites)")
		traceBuf   = flag.Int("trace-buf", 0, "finished request traces retained for /debug/traces (0 = 256, negative = tracing off)")
		slowThresh = flag.Duration("slow-threshold", 0, "warn-log requests slower than this (0 = disabled)")
		clusterOn  = flag.Bool("cluster", false, "enable sharded cluster mode (requires -self and -peers)")
		selfURL    = flag.String("self", "", "this node's advertised base URL in cluster mode (e.g. http://10.0.0.1:8080)")
		peersList  = flag.String("peers", "", "comma-separated base URLs of the full cluster membership (self included)")
		peersFile  = flag.String("peers-file", "", "file holding the cluster membership (one URL per line, # comments); SIGHUP re-reads and applies it")
		replicas   = flag.Int("ring-replicas", 0, "virtual nodes per peer on the consistent-hash ring (0 = 64)")
	)
	flag.Parse()

	// Gated counters (e.g. the routing-kernel pair counters) record only in
	// serving processes; tests and benchmarks keep the gate off.
	obs.SetCountersEnabled(true)
	var tracer *obs.Tracer
	if *traceBuf >= 0 {
		tracer = obs.NewTracer(*traceBuf)
	}

	cfg := service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		AnalysisWorkers: *analysisW,
		CacheSize:       *cacheSize,
		CacheTTL:        *cacheTTL,
		RequestTimeout:  *timeout,
		MaxNodes:        *maxNodes,
		MaxJobs:         *maxJobs,
		JobTTL:          *jobTTL,
		JobTimeout:      *jobTimeout,
		EnableAnalytic:  !*noAnalytic,
		WedgeTimeout:    *wedge,
		AccessLog:       os.Stderr,
		Tracer:          tracer,
		SlowThreshold:   *slowThresh,
	}
	if *clusterOn {
		cl, err := buildCluster(*selfURL, *peersList, *peersFile, *replicas)
		if err != nil {
			fmt.Fprintln(os.Stderr, "torusd:", err)
			os.Exit(1)
		}
		cfg.Cluster = cl
		if *peersFile != "" {
			watchPeersFile(cl, *peersFile)
		}
	}

	// Arm chaos faults before serving: env first, then the flag (the flag
	// wins on conflicting sites).
	if n, err := failpoint.EnableFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "torusd:", err)
		os.Exit(1)
	} else if n > 0 {
		fmt.Fprintf(os.Stderr, "torusd: %d failpoint(s) armed from %s\n", n, failpoint.EnvVar)
	}
	if n, err := failpoint.EnableAll(*failpoints); err != nil {
		fmt.Fprintln(os.Stderr, "torusd:", err)
		os.Exit(1)
	} else if n > 0 {
		fmt.Fprintf(os.Stderr, "torusd: %d failpoint(s) armed from -failpoints\n", n)
	}

	if err := run(cfg, *addr, *debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "torusd:", err)
		os.Exit(1)
	}
}

// buildCluster assembles this node's shard-ring view from the
// -self/-peers (or -peers-file) flags. Each remote peer gets its own
// single-attempt fill client: the cluster's per-peer health is the only
// failure policy, because every fill failure has a cheap local fallback —
// computing the answer ourselves.
func buildCluster(self, peers, peersFile string, replicas int) (*cluster.Cluster, error) {
	if self == "" || (peers == "" && peersFile == "") {
		return nil, errors.New("-cluster requires -self and -peers or -peers-file")
	}
	if peers != "" && peersFile != "" {
		return nil, errors.New("-peers and -peers-file are mutually exclusive")
	}
	var members []string
	if peersFile != "" {
		var err error
		if members, err = readPeersFile(peersFile); err != nil {
			return nil, err
		}
	} else {
		members = parsePeers(peers)
	}
	return cluster.New(cluster.Config{
		Self:     strings.TrimRight(self, "/"),
		Peers:    members,
		Replicas: replicas,
		Dial: func(u string) cluster.PeerTransport {
			return service.NewPeerFillClient(u)
		},
	})
}

// parsePeers splits a comma- or newline-separated membership list,
// dropping blanks and #-comment lines.
func parsePeers(s string) []string {
	var members []string
	for _, p := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == '\n' || r == '\r' }) {
		p = strings.TrimSpace(p)
		if p == "" || strings.HasPrefix(p, "#") {
			continue
		}
		members = append(members, strings.TrimRight(p, "/"))
	}
	return members
}

// readPeersFile loads the membership from a peers file: one URL per line
// (commas also accepted), blank lines and #-comments ignored.
func readPeersFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("peers file: %w", err)
	}
	members := parsePeers(string(data))
	if len(members) == 0 {
		return nil, fmt.Errorf("peers file %s: no peer URLs", path)
	}
	return members, nil
}

// watchPeersFile re-reads the peers file on every SIGHUP and applies it
// through the membership controller — the operator's config-reload path
// for rolling membership changes without restarts.
func watchPeersFile(cl *cluster.Cluster, path string) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			members, err := readPeersFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "torusd: SIGHUP reload:", err)
				continue
			}
			epoch, err := cl.Membership().Set(members)
			if err != nil {
				fmt.Fprintln(os.Stderr, "torusd: SIGHUP membership:", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "torusd: membership reloaded from %s: %d peer(s), epoch %d\n", path, len(members), epoch)
		}
	}()
}

// run serves until SIGINT/SIGTERM, then drains gracefully. When debugAddr
// is non-empty a second listener serves net/http/pprof on its own mux, so
// profiling endpoints never leak onto the public API address.
func run(cfg service.Config, addr, debugAddr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := service.New(cfg)
	expvar.Publish("torusd", srv.ExpvarMap())
	fmt.Fprintf(os.Stderr, "torusd: listening on %s\n", ln.Addr())

	var debugSrv *http.Server
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			if cerr := ln.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "torusd: closing api listener:", cerr)
			}
			return fmt.Errorf("debug listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fph := failpoint.Handler("/debug/failpoints")
		mux.Handle("/debug/failpoints", fph)
		mux.Handle("/debug/failpoints/", fph)
		if cfg.Tracer != nil {
			mux.Handle("/debug/traces", cfg.Tracer.Handler())
		}
		if cfg.Cluster != nil {
			mux.Handle("/debug/cluster", cfg.Cluster.Handler())
			mux.Handle("/debug/cluster/membership", cfg.Cluster.MembershipHandler())
		}
		debugSrv = &http.Server{Handler: mux}
		fmt.Fprintf(os.Stderr, "torusd: pprof + failpoints + traces on %s\n", dln.Addr())
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "torusd: pprof server:", err)
			}
		}()
	}

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
	fmt.Fprintln(os.Stderr, "torusd: draining")

	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if debugSrv != nil {
		if err := debugSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "torusd: pprof shutdown:", err)
		}
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "torusd: stopped")
	return nil
}
