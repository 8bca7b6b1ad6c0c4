package service

import (
	"math"
	"sync"
	"time"
)

// lruCache is a mutex-guarded LRU with per-entry TTL, kept in a slab: the
// entries are slots of one slice, linked into recency order by slot index,
// and the index maps a key to its slot. A full cache recycles its least
// recently used slot in place, and an expired entry's slot goes on a free
// list, so once the slab has grown to capacity a store allocates nothing
// beyond its value. Values must be treated as immutable once stored:
// readers receive the stored value itself, so handlers copy before
// mutating response-only fields (Cached).
type lruCache struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration // <= 0 means entries never expire
	slots    []slot
	index    map[string]int32 // nil once released
	head     int32            // most recently used slot, -1 when empty
	tail     int32            // least recently used slot, -1 when empty
	free     int32            // first free slot, linked through next; -1 when none
	now      func() time.Time
	epoch    time.Time // now() at creation; slot times count from it
}

// slot is one cache entry. Its store time is an offset from the cache's
// epoch rather than a time.Time, and its expiry is stored+ttl, since the
// TTL is the cache's.
type slot struct {
	key        string
	val        any
	prev, next int32 // neighbours in recency order (next: towards the tail)
	stored     int64 // ns from epoch to when val was (last) written
}

// newLRUCache returns an empty cache of capacity entries (at least one)
// whose entries expire ttl after they are stored, reading time from now.
func newLRUCache(capacity int, ttl time.Duration, now func() time.Time) *lruCache {
	capacity = min(max(capacity, 1), math.MaxInt32)
	return &lruCache{
		capacity: capacity,
		ttl:      ttl,
		index:    make(map[string]int32),
		head:     -1,
		tail:     -1,
		free:     -1,
		now:      now,
		epoch:    now(),
	}
}

// clock is now() as nanoseconds since the epoch. time.Time.Sub uses the
// monotonic readings when both times carry one, so a wall-clock step
// moves neither ages nor expiry.
func (c *lruCache) clock() int64 {
	return int64(c.now().Sub(c.epoch))
}

// get returns the live value for key plus its age (time since the value
// was stored), refreshing its recency. Expired entries are evicted on
// access.
func (c *lruCache) get(key string) (any, time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		return nil, 0, false
	}
	now := c.clock()
	s := &c.slots[i]
	if c.ttl > 0 && now-s.stored > int64(c.ttl) {
		c.unlink(i)
		delete(c.index, key)
		*s = slot{next: c.free} // drops the key and value for the GC
		c.free = i
		return nil, 0, false
	}
	c.toFront(i)
	return s.val, time.Duration(now - s.stored), true
}

// put inserts or refreshes key, evicting the least recently used entry
// when the cache is at capacity.
func (c *lruCache) put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.index == nil { // released
		return
	}
	now := c.clock()
	if i, ok := c.index[key]; ok {
		s := &c.slots[i]
		s.val, s.stored = val, now
		c.toFront(i)
		return
	}
	var i int32
	switch {
	case c.free >= 0:
		i = c.free
		c.free = c.slots[i].next
	case len(c.slots) < c.capacity:
		i = int32(len(c.slots))
		c.slots = append(c.slots, slot{})
	default:
		// A full cache recycles its least recently used slot for the new
		// key, so a steady stream of misses fills it without allocating.
		i = c.tail
		c.unlink(i)
		delete(c.index, c.slots[i].key)
	}
	c.slots[i] = slot{key: key, val: val, stored: now}
	c.pushFront(i)
	c.index[key] = i
}

// len reports the number of resident entries (expired-but-unaccessed
// entries included).
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// release drops every entry, the slab and the index, and makes later puts
// no-ops, so a stopped server keeps no answers alive however long it stays
// referenced.
func (c *lruCache) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots, c.index = nil, nil
	c.head, c.tail, c.free = -1, -1, -1
}

// unlink takes slot i out of the recency list.
func (c *lruCache) unlink(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// pushFront links the unlinked slot i in as the most recently used.
func (c *lruCache) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// toFront marks the linked slot i most recently used.
func (c *lruCache) toFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}
