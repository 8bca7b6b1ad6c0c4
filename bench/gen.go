package bench

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// tally counts what the generator sent and what failed: transport errors,
// non-2xx statuses, and wrong answers. It keeps the first few errors for
// the report.
type tally struct {
	attempted, failed, wrong atomic.Int64

	mu   sync.Mutex
	errs []string
}

func (t *tally) fail(wrongAnswer bool, err error) {
	t.failed.Add(1)
	if wrongAnswer {
		t.wrong.Add(1)
	}
	t.mu.Lock()
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
	t.mu.Unlock()
}

// opKind tells a scheduled operation's sender what to send.
type opKind uint8

const (
	opCall   opKind = iota // a request of the workload mix
	opSubmit               // POST /v1/optimize for the next job of the cycle
	opPoll                 // GET /v1/jobs, skipped while no job is pending
)

// op is one scheduled send of an open-loop phase, due at offset at from
// the phase start.
type op struct {
	at   time.Duration
	kind opKind
	req  *request
	job  jobSpec
}

// failed marks a latency sample whose request failed: it misses every
// latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// sender executes calls for the generator: it owns the client, the
// deployment's node rotation, the answer checks, and the tallies.
type sender struct {
	c    *client
	dep  *deployment
	jobs *jobTracker
	t    *tally

	inflight    atomic.Int64
	inflightMax atomic.Int64

	mu sync.Mutex
	// samples keeps the first answer of each sampled key, so its size is
	// bounded by the keys, not by the run length.
	samples map[string]sampled
}

// newSender builds a sender that keeps sampled answers in samples.
func newSender(c *client, dep *deployment, t *tally, samples map[string]sampled) *sender {
	return &sender{c: c, dep: dep, jobs: newJobTracker(), t: t, samples: samples}
}

// call sends one mix request to the next node in rotation and checks the
// answer. It returns when the response body was read (the end of the
// request's latency) and whether the request succeeded.
func (s *sender) call(ctx context.Context, slot int64, req *request) (time.Time, bool) {
	idx, url := s.dep.pick(slot)
	s.enter()
	status, body, err := s.c.do(ctx, http.MethodPost, url+req.path, req.body)
	end := time.Now()
	s.leave()
	s.dep.done(idx)
	s.t.attempted.Add(1)
	if err != nil {
		s.t.fail(false, fmt.Errorf("%s %s: %w", req.path, req.key, err))
		return end, false
	}
	if status/100 != 2 {
		s.t.fail(false, fmt.Errorf("%s %s: HTTP %d: %s", req.path, req.key, status, body))
		return end, false
	}
	resp, err := checkCall(req, body)
	if err != nil {
		s.t.fail(true, err)
		return end, false
	}
	if req.sample && resp != nil {
		s.mu.Lock()
		if _, ok := s.samples[req.key]; !ok {
			s.samples[req.key] = sampled{req: req, eMax: resp.EMax, total: resp.TotalLoad, lb: resp.BestLowerBound}
		}
		s.mu.Unlock()
	}
	return end, true
}

// enter and leave track requests in flight and their maximum.
func (s *sender) enter() {
	n := s.inflight.Add(1)
	for {
		m := s.inflightMax.Load()
		if n <= m || s.inflightMax.CompareAndSwap(m, n) {
			return
		}
	}
}

func (s *sender) leave() { s.inflight.Add(-1) }

// openResult is what an open-loop phase measured.
type openResult struct {
	latency []time.Duration // per mix request, from its scheduled send time
	late    []time.Duration // per executed op, actual minus scheduled send
}

// sleepUntil waits until t or ctx ends.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// openLoop runs a fixed-rate schedule with nproc sender goroutines, each
// taking the next due op, so at most nproc requests are in flight. Every
// request is timed from its scheduled send time: a stall is charged to
// every request queued behind it (no coordinated omission). The slices in
// res must be preallocated to len(ops).
func (s *sender) openLoop(ctx context.Context, nproc int, ops []op, res *openResult) {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				o := &ops[i]
				sched := t0.Add(o.at)
				if sleepUntil(ctx, sched) != nil {
					return
				}
				if o.kind == opPoll && !s.jobs.hasPending() {
					res.late[i] = -1 // skipped: nothing was sent
					continue
				}
				res.late[i] = time.Since(sched)
				switch o.kind {
				case opCall:
					end, ok := s.call(ctx, i, o.req)
					res.latency[i] = end.Sub(sched)
					if !ok {
						res.latency[i] = failedLatency
					}
				case opSubmit:
					s.submit(ctx, o.job, sched)
				case opPoll:
					s.poll(ctx)
				}
			}
		}()
	}
	wg.Wait()
}

// closedLoop keeps nproc requests in flight, each sender sending its next
// request as soon as the previous answer arrives, for d. It returns the
// rate of correct answers in each of windows equal slices of d.
func (s *sender) closedLoop(ctx context.Context, nproc int, stream []*request, d time.Duration, windows int) []float64 {
	var next atomic.Int64
	counts := make([]atomic.Int64, windows)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := next.Add(1) - 1
				end, ok := s.call(ctx, i, stream[i%int64(len(stream))])
				if ok && end.Before(deadline) {
					counts[int64(end.Sub(start))*int64(windows)/int64(d)].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	rates := make([]float64, windows)
	for i := range counts {
		rates[i] = float64(counts[i].Load()) / (d.Seconds() / float64(windows))
	}
	return rates
}

// batch sends every request of stream closed-loop with nproc senders.
func (s *sender) batch(ctx context.Context, nproc int, stream []*request) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(stream)) {
					return
				}
				s.call(ctx, i, stream[i])
			}
		}()
	}
	wg.Wait()
}
