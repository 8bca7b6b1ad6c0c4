package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Record is one line of the run history (bench/history.jsonl): the run's
// configuration, build, validity, and every metric.
type Record struct {
	Commit     string            `json:"commit"`
	Modified   bool              `json:"modified,omitempty"`
	Go         string            `json:"go"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`
	Time       string            `json:"time"`
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Valid      bool              `json:"valid"`
	Invalid    []string          `json:"invalid,omitempty"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Metrics    map[string]Metric `json:"metrics"`
}

// NewRecord describes one finished run, stamped with the build's VCS
// revision (vcs.revision; "unknown" outside a git checkout).
func NewRecord(cfg Config, res *Result) Record {
	rec := Record{
		Commit:     "unknown",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Time:       time.Now().UTC().Format(time.RFC3339),
		Workload:   cfg.Workload.Name,
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
		Trace:      cfg.Trace,
		Valid:      len(res.Invalid) == 0,
		Invalid:    res.Invalid,
		Correct:    res.Correct,
		Attempted:  res.Attempted,
		Failed:     res.Failed,
		Metrics:    res.Metrics,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rec.Commit = s.Value
			case "vcs.modified":
				rec.Modified = s.Value == "true"
			}
		}
	}
	return rec
}

// AppendRecord appends rec as one JSON line to the file at path.
func AppendRecord(path string, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		//lint:ignore errcheck-lite the write error is the one worth reporting
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRecords reads a JSON-lines run history.
func ReadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //lint:ignore errcheck-lite read-only file
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// MetricSpec is one metric entry of BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is the part of BENCHMARK.json torusbench reads.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Compare checks two sets of end-to-end runs against the metrics' bounds,
// for every workload and end-to-end metric, as a share of set a's median.
// Without regress the sets must agree: their medians may differ by at most
// the bound either way (two runs of one commit). With regress, a is the
// parent and b the change: b's median may be worse than a's, in the
// direction the metric's Better names, by at most the bound, and may be
// better by any amount. Every run must also be valid, correct, and
// failure-free. It returns one line per comparison and whether all passed.
func Compare(spec *Spec, a, b []Record, regress bool) ([]string, bool) {
	group := func(rs []Record) map[string][]Record {
		g := make(map[string][]Record)
		for _, r := range rs {
			if !r.Trace {
				g[r.Workload] = append(g[r.Workload], r)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	var names []string
	for w := range ga {
		names = append(names, w)
	}
	for w := range gb {
		if _, ok := ga[w]; !ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var lines []string
	ok := len(names) > 0
	for _, w := range names {
		ra, rb := ga[w], gb[w]
		if len(ra) == 0 || len(rb) == 0 {
			lines = append(lines, fmt.Sprintf("FAIL %s: runs in only one set (%d vs %d)", w, len(ra), len(rb)))
			ok = false
			continue
		}
		for _, r := range append(append([]Record(nil), ra...), rb...) {
			if !r.Valid || !r.Correct || r.Failed > 0 {
				lines = append(lines, fmt.Sprintf("FAIL %s seed %d: valid=%v correct=%v failed=%d %v",
					w, r.Seed, r.Valid, r.Correct, r.Failed, r.Invalid))
				ok = false
			}
		}
		for _, ms := range spec.EndToEnd {
			va, vb := values(ra, ms.Name), values(rb, ms.Name)
			ma, mb := median(va), median(vb)
			diff := (mb - ma) / ma // b's change, positive when it reads higher
			off := math.Abs(diff)
			if regress {
				off = diff // worse is higher
				if ms.Better == "higher" {
					off = -diff
				}
			}
			verdict := "ok  "
			if len(va) == 0 || len(vb) == 0 || ma == 0 || off > ms.Bound {
				verdict = "FAIL"
				ok = false
			}
			lines = append(lines, fmt.Sprintf("%s %-16s %-17s a=%-12.5g b=%-12.5g diff=%+6.1f%% bound=%4.1f%% (n=%d/%d)",
				verdict, w, ms.Name, ma, mb, 100*diff, 100*ms.Bound, len(va), len(vb)))
		}
	}
	return lines, ok
}

// values collects one metric across records.
func values(rs []Record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
