package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"torusnet/internal/obs"
)

// errQueueFull is returned by submit when the pending-job queue is at
// capacity; the HTTP layer maps it to 429 + Retry-After.
var errQueueFull = errors.New("service: worker queue full")

// errPoolClosed is returned by submit after close; it can only surface on
// a request that raced graceful shutdown.
var errPoolClosed = errors.New("service: worker pool closed")

// panicError wraps a panic recovered inside a pooled computation so one
// poisoned request cannot take the process down; the HTTP layer maps it
// to 500.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("service: analysis panicked: %v", e.value)
}

// workerPool runs computations on a fixed set of goroutines with a bounded
// pending queue — the service's backpressure point. Each job's result
// travels over a buffered channel of its own so a worker never blocks on a
// caller that has already timed out.
//
// The pool self-heals two worker failure modes:
//
//   - Crash: a panic escaping the per-job shield (only possible through the
//     service.pool.dispatch failpoint today, but the recovery is generic)
//     delivers a panicError to the job and spawns a replacement worker that
//     inherits the crashed worker's WaitGroup slot.
//   - Wedge: the watchdog goroutine scans running jobs; one running longer
//     than wedgeTimeout is marked abandoned and a replacement worker is
//     spawned (with its own WaitGroup slot) so pool capacity recovers while
//     the wedged worker is stuck. When the wedged worker finally finishes
//     it delivers its (now unwanted) result and retires instead of taking
//     jobs a replacement already covers.
type workerPool struct {
	mu     sync.Mutex
	closed bool
	jobs   chan *poolJob
	wg     sync.WaitGroup

	workers int // configured worker count (capacity denominator)

	queued  atomic.Int64 // jobs accepted but not yet picked up
	running atomic.Int64 // jobs currently executing

	restarts     atomic.Int64 // workers respawned after a crash
	replacements atomic.Int64 // workers replaced by the watchdog

	inflightMu sync.Mutex
	inflight   map[*poolJob]time.Time // running job → start time

	wedgeTimeout time.Duration
	watchStop    chan struct{}
	watchDone    chan struct{}

	// onQueueWait, when set, receives each job's queue-wait duration (time
	// between submit and a worker picking it up) — the server feeds it into
	// the queue-wait histogram.
	onQueueWait func(time.Duration)
}

// poolJob is one submitted computation. The caller owns it, usually as
// part of a larger value (missCall), so a job costs no allocation of its
// own; its result channel comes from resultChans.
//
// A job is also the context.Context its task runs under, so a job needs
// no derived context either: its values are its parent's, its deadline is
// the caller's, and it is done once submit stops waiting for it, at the
// deadline or when the parent is done. Nothing but submit's wait watches
// the deadline; a worker that takes a job already given up skips it.
type poolJob struct {
	parent   context.Context // the caller's context; supplies Value
	deadline time.Time
	task     task
	res      chan poolResult // buffered, capacity 1; set by submit
	enqueued time.Time       // when submit accepted the job
	// abandoned is set by the watchdog when it replaces the worker running
	// this job; the wedged worker checks it on completion to retire.
	abandoned atomic.Bool

	mu     sync.Mutex
	doneCh chan struct{} // made by the first Done or giveUp, closed by giveUp
	cause  error         // set once, by giveUp
}

// Deadline returns the caller's request deadline.
func (j *poolJob) Deadline() (time.Time, bool) { return j.deadline, true }

// Done returns a channel closed once submit has given the job up. It is
// made on first use: a task that never asks costs no channel.
func (j *poolJob) Done() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.doneCh == nil {
		j.doneCh = make(chan struct{})
	}
	return j.doneCh
}

// Err returns nil until submit gives the job up, then why:
// context.DeadlineExceeded, or the parent's error (the client's
// cancellation).
func (j *poolJob) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cause
}

// Value delegates to the parent, which carries the request's trace and
// profiler labels.
func (j *poolJob) Value(key any) any { return j.parent.Value(key) }

// giveUp ends the job's context with err, closing Done. submit calls it
// at most once.
func (j *poolJob) giveUp(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cause = err
	if j.doneCh == nil {
		j.doneCh = make(chan struct{})
	}
	close(j.doneCh)
}

// task is the computation a pool job runs on a worker.
type task interface {
	run() (any, error)
}

// resultChans recycles job result channels. Every job gets exactly one
// result sent on its channel, so a channel whose result submit received
// is empty again and goes back; one whose caller gave up first is left to
// the garbage collector, since its worker may still send on it.
var resultChans = sync.Pool{New: func() any { return make(chan poolResult, 1) }}

type poolResult struct {
	val any
	err error
}

// jobOutcome tells the worker loop what to do after running one job.
type jobOutcome int

const (
	// jobOK: keep taking jobs.
	jobOK jobOutcome = iota
	// jobRetire: a replacement owns this worker's role (watchdog
	// replacement while wedged); release the WaitGroup slot and exit.
	jobRetire
	// jobCrashed: the worker panicked outside the job shield and already
	// spawned a replacement inheriting its WaitGroup slot; exit without
	// releasing it.
	jobCrashed
)

// newWorkerPool builds the pool. wedgeTimeout <= 0 disables the watchdog;
// onQueueWait (optional, nil to disable) observes per-job queue waits.
func newWorkerPool(workers, queue int, wedgeTimeout time.Duration, onQueueWait func(time.Duration)) *workerPool {
	if workers <= 0 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	p := &workerPool{
		jobs:         make(chan *poolJob, queue),
		workers:      workers,
		inflight:     make(map[*poolJob]time.Time),
		wedgeTimeout: wedgeTimeout,
		watchStop:    make(chan struct{}),
		watchDone:    make(chan struct{}),
		onQueueWait:  onQueueWait,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		//lint:ignore syncmisuse workers are joined in (*workerPool).close via wg.Wait
		go p.worker()
	}
	if wedgeTimeout > 0 {
		//lint:ignore syncmisuse watchdog is joined in (*workerPool).close via watchDone
		go p.watchdog()
	} else {
		close(p.watchDone)
	}
	return p
}

func (p *workerPool) worker() {
	for j := range p.jobs {
		p.queued.Add(-1)
		if p.onQueueWait != nil && !j.enqueued.IsZero() {
			p.onQueueWait(time.Since(j.enqueued))
		}
		if err := j.Err(); err != nil {
			// The caller gave up while the job sat in the queue; skip the
			// work instead of computing for nobody.
			j.res <- poolResult{err: err}
			continue
		}
		switch p.runJob(j) {
		case jobOK:
		case jobRetire:
			p.wg.Done()
			return
		case jobCrashed:
			return
		}
	}
	p.wg.Done()
}

// runJob executes one job with crash recovery. The outcome is named so the
// deferred recovery can rewrite it after a panic.
func (p *workerPool) runJob(j *poolJob) (outcome jobOutcome) {
	p.running.Add(1)
	p.inflightMu.Lock()
	p.inflight[j] = time.Now()
	p.inflightMu.Unlock()
	outcome = jobCrashed
	defer func() {
		p.inflightMu.Lock()
		delete(p.inflight, j)
		p.inflightMu.Unlock()
		p.running.Add(-1)
		if outcome != jobCrashed {
			return
		}
		// The worker itself panicked (dispatch failpoint or a bug outside
		// runShielded). Fail the job, then restore pool capacity.
		r := recover()
		j.res <- poolResult{err: &panicError{value: r, stack: debug.Stack()}}
		p.restarts.Add(1)
		if j.abandoned.Load() {
			// The watchdog already spawned our replacement; just retire.
			outcome = jobRetire
			p.wg.Done()
			return
		}
		//lint:ignore syncmisuse,goroutinelifecycle replacement inherits this worker's WaitGroup slot, joined in close
		go p.worker()
	}()
	fpPoolDispatch.InjectHard()
	var res poolResult
	if obs.FromContext(j) != nil || obs.CountersEnabled() {
		// Re-apply the request's pprof labels (endpoint, and transitively
		// engine/experiment set deeper in the call) on the worker goroutine
		// for the job's duration, so CPU profiles attribute pooled work to
		// its request. Skipped when observability is off: pprof.Do
		// allocates its label set.
		pprof.Do(j, pprof.Labels(), func(context.Context) {
			res = runShielded(j.task)
		})
	} else {
		res = runShielded(j.task)
	}
	j.res <- res
	if j.abandoned.Load() {
		return jobRetire
	}
	return jobOK
}

// runShielded runs t, converting a panic into a *panicError.
func runShielded(t task) (res poolResult) {
	defer func() {
		if r := recover(); r != nil {
			res = poolResult{err: &panicError{value: r, stack: debug.Stack()}}
		}
	}()
	v, err := t.run()
	return poolResult{val: v, err: err}
}

// watchdog periodically scans running jobs for wedged workers and restores
// capacity by spawning replacements.
func (p *workerPool) watchdog() {
	defer close(p.watchDone)
	interval := p.wedgeTimeout / 8
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.watchStop:
			return
		case <-ticker.C:
			p.recoverWedged()
		}
	}
}

// recoverWedged replaces the worker of every job running past wedgeTimeout.
// The CompareAndSwap guarantees exactly one replacement per wedged job even
// across overlapping scans.
func (p *workerPool) recoverWedged() {
	now := time.Now()
	p.inflightMu.Lock()
	defer p.inflightMu.Unlock()
	for j, started := range p.inflight {
		if now.Sub(started) <= p.wedgeTimeout {
			continue
		}
		if !j.abandoned.CompareAndSwap(false, true) {
			continue
		}
		p.replacements.Add(1)
		p.wg.Add(1)
		//lint:ignore syncmisuse replacement workers are joined in (*workerPool).close via wg.Wait
		go p.worker()
	}
}

// submit enqueues j, whose parent, deadline and task the caller has set,
// and waits for its result, its deadline or the end of its parent,
// whichever comes first; on either of the last two it gives j up. It never
// blocks on a full queue: callers get errQueueFull immediately so the
// HTTP layer can shed load. A job whose deadline or parent has already
// ended, as a peer fill can leave it, is given up without queueing. A job
// is submitted at most once.
func (p *workerPool) submit(j *poolJob) (any, error) {
	j.enqueued = time.Now()
	err := j.parent.Err()
	if err == nil && !j.enqueued.Before(j.deadline) {
		err = context.DeadlineExceeded
	}
	if err != nil {
		j.giveUp(err)
		return nil, err
	}
	j.res = resultChans.Get().(chan poolResult)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		resultChans.Put(j.res)
		return nil, errPoolClosed
	}
	select {
	case p.jobs <- j:
		p.queued.Add(1)
		p.mu.Unlock()
	default:
		p.mu.Unlock()
		resultChans.Put(j.res)
		return nil, errQueueFull
	}
	t := acquireTimer(j.deadline.Sub(j.enqueued))
	select {
	case r := <-j.res:
		releaseTimer(t)
		resultChans.Put(j.res)
		return r.val, r.err
	case <-t.C:
		timers.Put(t) // its tick taken, it is stopped and empty
		j.giveUp(context.DeadlineExceeded)
		return nil, context.DeadlineExceeded
	case <-j.parent.Done():
		releaseTimer(t)
		err = j.parent.Err()
		j.giveUp(err)
		return nil, err
	}
}

// timers recycles submit's deadline timers. Under go.mod's go 1.22 a
// timer keeps the pre-1.23 channel rules, where a fired tick waits in the
// channel until received: a timer goes back to the pool only stopped and
// drained, so a reused one never delivers a stale tick.
var timers sync.Pool

// acquireTimer returns a timer that fires after d.
func acquireTimer(d time.Duration) *time.Timer {
	if t, ok := timers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// releaseTimer stops t, whose tick nobody has received, drains that tick
// if it fired, and pools it.
func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		// It fired: its tick is in the channel or still being sent, so
		// only a blocking receive is sure to take it. (Under the go 1.23
		// rules Stop reports true for any tick nobody received.)
		<-t.C
	}
	timers.Put(t)
}

// utilization reports pool fullness as (running+queued)/(workers+queue
// capacity), the saturation gauge operators watch: at 1 every worker is
// busy and the queue is full, so the next cache miss gets 429. A
// wedged-and-replaced worker's job still counts as running, so sustained
// wedging pushes the gauge toward 1, which is exactly the intended signal.
func (p *workerPool) utilization() float64 {
	capacity := p.workers + cap(p.jobs)
	if capacity <= 0 {
		return 1
	}
	return float64(p.running.Load()+p.queued.Load()) / float64(capacity)
}

// close stops intake, waits for the workers to drain the queue, then
// reaps the watchdog.
func (p *workerPool) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
		close(p.watchStop)
	}
	p.mu.Unlock()
	p.wg.Wait()
	<-p.watchDone
}
