package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"torusnet/internal/service"
)

// jobPollEvery is the GET /v1/jobs polling interval.
const jobPollEvery = 10 * time.Millisecond

// jobCycleLen is the number of jobs in one pass of jobCycle.
const jobCycleLen = 5

// jobSpec is one /v1/optimize submission and what its result must show.
type jobSpec struct {
	body     []byte
	strategy string
	// proven is the optimum branch-and-bound must prove; 0 when the job
	// only has to sit at or above its certified lower bound.
	proven float64
}

// jobCycle returns the i-th job of the fixed cycle: bnb on T²₆ (proves
// E_max 2), anneal on T³₈ with seed i, Lee-sphere on T³₈, anneal again, bnb
// on T²₈ (proves 3, where linear gives 4). Annealing appears twice so the
// median job falls inside the annealing group rather than on the boundary
// between two job types, where it would jump between them from run to run.
// The anneal seed is the job's index, not drawn from the run's seed, so
// every run searches the same way. The cheap jobs come first so short runs
// still finish their first jobs fast.
func jobCycle(i int) jobSpec {
	var req service.OptimizeRequest
	var proven float64
	switch i % jobCycleLen {
	case 0:
		req, proven = service.OptimizeRequest{K: 6, D: 2, Size: 6, Routing: "odr", Strategy: "bnb"}, 2
	case 1, 3:
		req = service.OptimizeRequest{K: 8, D: 3, Size: 64, Routing: "odr", Strategy: "anneal", Steps: 200, Seed: int64(i)}
	case 2:
		req = service.OptimizeRequest{K: 8, D: 3, Size: 64, Routing: "odr", Strategy: "leesphere"}
	default:
		req, proven = service.OptimizeRequest{K: 8, D: 2, Size: 8, Routing: "odr", Strategy: "bnb"}, 3
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of ints and strings always marshals
	}
	return jobSpec{body: body, strategy: req.Strategy, proven: proven}
}

// checkJob judges a finished job: bnb must prove its known optimum, the
// heuristics must report E_max at or above their certified lower bound.
func checkJob(spec jobSpec, snap service.JobSnapshot) error {
	if snap.State != service.JobStateDone || snap.Result == nil {
		return fmt.Errorf("job %s (%s) ended %s: %s", snap.ID, spec.strategy, snap.State, snap.Error)
	}
	r := snap.Result
	if r.Strategy != spec.strategy {
		return fmt.Errorf("job %s ran %s, want %s", snap.ID, r.Strategy, spec.strategy)
	}
	if spec.proven > 0 && (!r.Proven || r.EMax != spec.proven) {
		return fmt.Errorf("job %s: bnb proven=%v e_max %v, want proven %v", snap.ID, r.Proven, r.EMax, spec.proven)
	}
	if r.EMax < r.LowerBound && !closeTo(r.EMax, r.LowerBound) {
		return fmt.Errorf("job %s: e_max %v below its lower bound %v", snap.ID, r.EMax, r.LowerBound)
	}
	return nil
}

// jobTracker follows submitted jobs until a poll sees them finish; a job's
// latency runs from its scheduled submit to that poll's answer.
type jobTracker struct {
	mu      sync.Mutex
	pending map[string]pendingJob
	latency []time.Duration
}

type pendingJob struct {
	spec  jobSpec
	sched time.Time
}

func newJobTracker() *jobTracker {
	return &jobTracker{pending: make(map[string]pendingJob)}
}

func (jt *jobTracker) hasPending() bool {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return len(jt.pending) > 0
}

// latencies returns the finished jobs' latencies.
func (jt *jobTracker) latencies() []time.Duration {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return append([]time.Duration(nil), jt.latency...)
}

// submit sends one job; sched is its scheduled send time.
func (s *sender) submit(ctx context.Context, spec jobSpec, sched time.Time) {
	idx, url := s.dep.pick(0)
	s.enter()
	status, body, err := s.c.do(ctx, http.MethodPost, url+"/v1/optimize", spec.body)
	s.leave()
	s.dep.done(idx)
	s.t.attempted.Add(1)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("HTTP %d: %s", status, body)
	}
	var acc service.JobAccepted
	if err == nil {
		err = json.Unmarshal(body, &acc)
	}
	if err != nil {
		s.t.fail(false, fmt.Errorf("submit %s job: %w", spec.strategy, err))
		return
	}
	s.jobs.mu.Lock()
	s.jobs.pending[acc.ID] = pendingJob{spec: spec, sched: sched}
	s.jobs.mu.Unlock()
}

// poll lists the jobs once and retires every pending job the answer shows
// finished, checking its result.
func (s *sender) poll(ctx context.Context) {
	idx, url := s.dep.pick(0)
	s.enter()
	status, body, err := s.c.do(ctx, http.MethodGet, url+"/v1/jobs", nil)
	seen := time.Now()
	s.leave()
	s.dep.done(idx)
	s.t.attempted.Add(1)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", status, body)
	}
	var snaps []service.JobSnapshot
	if err == nil {
		err = json.Unmarshal(body, &snaps)
	}
	if err != nil {
		s.t.fail(false, fmt.Errorf("poll jobs: %w", err))
		return
	}
	var wrong []error
	s.jobs.mu.Lock()
	for _, snap := range snaps {
		p, ok := s.jobs.pending[snap.ID]
		if !ok || snap.State == service.JobStateRunning {
			continue
		}
		delete(s.jobs.pending, snap.ID)
		if err := checkJob(p.spec, snap); err != nil {
			wrong = append(wrong, err)
			continue
		}
		s.jobs.latency = append(s.jobs.latency, seen.Sub(p.sched))
	}
	s.jobs.mu.Unlock()
	for _, err := range wrong {
		s.t.fail(true, err)
	}
}

// drainJobs polls every interval until every submitted job has finished or
// ctx ends.
func (s *sender) drainJobs(ctx context.Context, every time.Duration) error {
	for s.jobs.hasPending() {
		if err := sleepUntil(ctx, time.Now().Add(every)); err != nil {
			return fmt.Errorf("bench: jobs still running: %w", err)
		}
		s.poll(ctx)
	}
	return nil
}

// probePollEvery is the serial job probe's polling interval. On an idle
// deployment a poll costs little, and a finer interval keeps the probe's
// latencies from rounding up by as much as jobPollEvery.
const probePollEvery = time.Millisecond

// jobProbe runs n jobs of the cycle one after another on an otherwise idle
// deployment, each polled to completion before the next is submitted. A
// probe job's latency runs from its submit to the poll that sees it done.
func (s *sender) jobProbe(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		s.submit(ctx, jobCycle(i), time.Now())
		if err := s.drainJobs(ctx, probePollEvery); err != nil {
			return err
		}
	}
	return nil
}
