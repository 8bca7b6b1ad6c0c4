package service

import (
	"runtime/debug"
	"sync"
)

// flightGroup coalesces concurrent calls with the same key: the first
// caller (leader) runs fn, later callers block until the leader finishes
// and share its result. It is the stdlib-only equivalent of
// golang.org/x/sync/singleflight, reduced to what the service needs.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// flightCall is one key's entry. The leader allocates it as part of a
// larger value (missCall), so an entry costs no allocation of its own.
type flightCall struct {
	done sync.WaitGroup // followers wait here for the leader to finish
	val  any
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do executes fn once per key among concurrent callers. Only the leader
// calls lead, under the group's lock, for the entry followers will wait
// on; followers allocate nothing. shared reports whether this caller
// received another caller's result. Followers inherit the leader's error;
// the leader's per-request deadline therefore bounds every waiter (execute
// sends a follower back in when the error is only the leader's client
// leaving). A panic in fn becomes a *panicError for the leader and every
// follower, and the key is released either way, so one poisoned call can
// never wedge later requests for its key.
func (g *flightGroup) do(key string, lead func() *flightCall, fn func() (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		c.done.Wait()
		return c.val, c.err, true
	}
	c := lead()
	c.done.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			c.val, c.err = nil, &panicError{value: r, stack: debug.Stack()}
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		c.done.Done()
		val, err = c.val, c.err
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}
