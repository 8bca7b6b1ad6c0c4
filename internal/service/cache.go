package service

import (
	"container/list"
	"sync"
	"time"
)

// lruCache is a mutex-guarded LRU with per-entry TTL. Values must be
// treated as immutable once stored: readers receive the stored value
// itself, so handlers copy before mutating response-only fields (Cached).
type lruCache struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration // <= 0 means entries never expire
	ll       *list.List    // front = most recently used
	items    map[string]*list.Element
	now      func() time.Time // injected in TTL tests
}

type cacheEntry struct {
	key     string
	val     any
	expires time.Time // zero means never
	stored  time.Time // when the value was (last) written, for age metrics
}

func newLRUCache(capacity int, ttl time.Duration) *lruCache {
	if capacity <= 0 {
		capacity = 1
	}
	return &lruCache{
		capacity: capacity,
		ttl:      ttl,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		now:      time.Now,
	}
}

// get returns the live value for key plus its age (time since the value
// was stored), refreshing its recency. Expired entries are evicted on
// access.
func (c *lruCache) get(key string) (any, time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, 0, false
	}
	ent := el.Value.(*cacheEntry)
	now := c.now()
	if !ent.expires.IsZero() && now.After(ent.expires) {
		c.ll.Remove(el)
		delete(c.items, key)
		return nil, 0, false
	}
	c.ll.MoveToFront(el)
	return ent.val, now.Sub(ent.stored), true
}

// put inserts or refreshes key, evicting the least recently used entry
// when the cache is at capacity.
func (c *lruCache) put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	var expires time.Time
	if c.ttl > 0 {
		expires = now.Add(c.ttl)
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.val, ent.expires, ent.stored = val, expires, now
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		// A full cache recycles its least recently used entry for the new
		// key, so a steady stream of misses fills it without allocating.
		back := c.ll.Back()
		ent := back.Value.(*cacheEntry)
		delete(c.items, ent.key)
		*ent = cacheEntry{key: key, val: val, expires: expires, stored: now}
		c.ll.MoveToFront(back)
		c.items[key] = back
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val, expires: expires, stored: now})
}

// len reports the number of resident entries (expired-but-unaccessed
// entries included).
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
