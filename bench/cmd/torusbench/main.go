// Command torusbench is the torusd benchmark: it boots torusd in-process,
// drives a seeded workload open-loop at a fixed rate, checks every answer
// against the paper, and prints every metric by name with its unit. The
// last line of standard output is the run's result as one JSON object
// (correct, attempted, failed, metrics). See bench/README.md.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	torusbench --workload hot-mix --seed 1 --seconds 20 --trace 0
//	torusbench --seed 1 --out bench/history.jsonl   # every workload, both runs
//	torusbench -compare a.jsonl b.jsonl             # do two sets of runs agree?
//	torusbench -compare -regress parent.jsonl change.jsonl  # did the change regress?
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
// metrics; without --trace both run. Several runs each get a process of
// their own. -out appends one line per run to a JSON-lines history.
// -compare exits 1 when any end-to-end metric's median differs between the
// two sets by more than its BENCHMARK.json bound; with -regress, only when
// the second set's median is worse than the first's by more than the bound.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"time"

	"torusnet/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of the request stream and random placements")
		seconds  = flag.Float64("seconds", 20, "measured run length in seconds")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, 1: per-layer metrics, -1: both")
		out      = flag.String("out", "", "append one JSON line per run to this history file")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
		compare  = flag.Bool("compare", false, "compare two history files A B instead of running")
		regress  = flag.Bool("regress", false, "with -compare: fail only where B is worse than A")
	)
	flag.Parse()
	if *compare {
		return runCompare(*spec, flag.Args(), *regress)
	}
	if flag.NArg() > 0 || *regress || *seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "torusbench: bad arguments; see -h")
		return 2
	}
	workloads := bench.Workloads
	if *workload != "all" {
		w, ok := bench.WorkloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "torusbench: unknown workload %q\n", *workload)
			return 2
		}
		workloads = []bench.Workload{w}
	}
	modes := []int{0, 1}
	if *trace >= 0 {
		modes = []int{*trace}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if len(workloads) == 1 && len(modes) == 1 {
		cfg := bench.Config{Workload: workloads[0], Seed: *seed, Seconds: *seconds, Trace: modes[0] == 1}
		if err := runOne(ctx, cfg, *out); err != nil {
			fmt.Fprintln(os.Stderr, "torusbench:", err)
			return 1
		}
		return 0
	}
	// Several runs each get a process of their own, exactly as when one is
	// named: what one run leaves in the heap or the runtime must not carry
	// into the next run's measurements.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "torusbench:", err)
		return 1
	}
	for _, w := range workloads {
		for _, mode := range modes {
			cmd := exec.CommandContext(ctx, self, "--workload", w.Name,
				"--seed", strconv.FormatInt(*seed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
				"--trace", strconv.Itoa(mode), "--out", *out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "torusbench: %s --trace %d: %v\n", w.Name, mode, err)
				return 1
			}
		}
	}
	return 0
}

// runOne runs one configuration, prints its metrics and result line, and
// appends it to the history file when one is named.
func runOne(ctx context.Context, cfg bench.Config, out string) error {
	// Each run ends well inside this deadline; past it something hangs.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(4*cfg.Seconds+90)*time.Second)
	defer cancel()
	res, err := bench.Run(ctx, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.Workload.Name, err)
	}
	fmt.Printf("# %s seed %d trace %v: attempted %d failed %d correct %v checked %d\n",
		cfg.Workload.Name, cfg.Seed, cfg.Trace, res.Attempted, res.Failed, res.Correct, res.Checked)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-40s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "torusbench: failure:", e)
	}
	for _, reason := range res.Invalid {
		fmt.Fprintln(os.Stderr, "torusbench: invalid run:", reason)
	}
	if out != "" {
		if err := bench.AppendRecord(out, bench.NewRecord(cfg, res)); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runCompare implements -compare [-regress] A B.
func runCompare(specPath string, files []string, regress bool) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "torusbench: -compare needs two history files")
		return 2
	}
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "torusbench:", err)
		return 2
	}
	var sets [2][]bench.Record
	for i, f := range files {
		if sets[i], err = bench.ReadRecords(f); err != nil {
			fmt.Fprintln(os.Stderr, "torusbench:", err)
			return 2
		}
	}
	lines, ok := bench.Compare(spec, sets[0], sets[1], regress)
	for _, l := range lines {
		fmt.Println(l)
	}
	if !ok {
		return 1
	}
	return 0
}
