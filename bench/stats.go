package bench

import (
	"math"
	"sort"
	"time"

	"torusnet/internal/obs"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported as measured: a p99 needs at least 1 000 samples, a median 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// whether the sample supports it, i.e. at least minBeyond samples lie
// beyond it. The value is returned either way so callers can still print
// it; an unsupported percentile makes the run invalid.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], n-1-idx >= minBeyond
}

// durationsIn converts durations to sorted float64 values in unit.
func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// sorted returns vs sorted ascending, in place.
func sorted(vs []float64) []float64 {
	sort.Float64s(vs)
	return vs
}

// ratio is a/b, or 0 when b is 0 (a share of nothing is no share).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the middle of vs (the mean of the two middles for an even
// count) without requiring vs to be sorted; 0 for no values. It summarizes
// repeated measurements of one quantity, where no percentile is claimed.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// spanSelf is one span's self time: its duration minus the union of its
// children's intervals, each clipped to the span's own interval.
type spanSelf struct {
	Name string
	Self time.Duration
}

// selfTimes computes the self time of every span of one exported trace.
// Span IDs are unique only within one trace object (a peer hop exports its
// own tree under the same trace ID), so children are matched per object.
func selfTimes(tr obs.Trace) []spanSelf {
	type interval struct{ lo, hi int64 }
	children := make(map[uint64][]interval, len(tr.Spans))
	for _, s := range tr.Spans {
		if s.ParentID != 0 {
			lo := s.Start.UnixNano()
			children[s.ParentID] = append(children[s.ParentID], interval{lo, lo + s.DurationNS})
		}
	}
	out := make([]spanSelf, 0, len(tr.Spans))
	for _, s := range tr.Spans {
		lo := s.Start.UnixNano()
		hi := lo + s.DurationNS
		ivs := children[s.SpanID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, cur := int64(0), lo
		for _, iv := range ivs {
			a, b := max(iv.lo, cur), min(iv.hi, hi)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		out = append(out, spanSelf{Name: s.Name, Self: time.Duration(s.DurationNS - covered)})
	}
	return out
}
