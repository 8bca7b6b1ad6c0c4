package service

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestLRUCacheModel drives the slab LRU through 10k seeded get, put and
// clock-advance operations at capacities 1, 2 and 7 and checks every
// answer against a reference map plus recency list: an evicted or expired
// key always misses, a hit returns the value last put under that key (each
// put stores a value no other put stores, so a recycled slot answering for
// its old key shows), ages are exact, len never exceeds capacity, and the
// slab's recency links match the reference order.
func TestLRUCacheModel(t *testing.T) {
	const ttl = 50 * time.Second
	for _, capacity := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			now := time.Unix(1_000_000, 0)
			c := newLRUCache(capacity, ttl, func() time.Time { return now })

			type entry struct {
				val    int
				stored time.Time
			}
			ref := map[string]entry{}
			var order []string // most recently used first
			drop := func(key string) {
				delete(ref, key)
				order = slices.DeleteFunc(order, func(k string) bool { return k == key })
			}
			touch := func(key string) {
				order = slices.DeleteFunc(order, func(k string) bool { return k == key })
				order = slices.Insert(order, 0, key)
			}

			keys := 2*capacity + 3
			for op := 0; op < 10_000; op++ {
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				switch r := rng.Intn(10); {
				case r < 4:
					c.put(key, op)
					if _, ok := ref[key]; !ok && len(ref) == capacity {
						drop(order[len(order)-1])
					}
					ref[key] = entry{op, now}
					touch(key)
				case r < 9:
					v, age, ok := c.get(key)
					want, resident := ref[key]
					if resident && now.Sub(want.stored) > ttl {
						drop(key)
						resident = false
					}
					switch {
					case ok && !resident:
						t.Fatalf("op %d: get(%s) hit with %v, but the key was evicted or expired", op, key, v)
					case !ok && resident:
						t.Fatalf("op %d: get(%s) missed a resident key", op, key)
					case ok && (v.(int) != want.val || age != now.Sub(want.stored)):
						t.Fatalf("op %d: get(%s) = (%v, age %v), want (%d, age %v)", op, key, v, age, want.val, now.Sub(want.stored))
					}
					if resident {
						touch(key)
					}
				default:
					now = now.Add(time.Duration(rng.Intn(20)) * time.Second)
				}

				if n := c.len(); n != len(ref) || n > capacity {
					t.Fatalf("op %d: len = %d, reference holds %d, capacity %d", op, n, len(ref), capacity)
				}
				var links []string
				for i := c.head; i >= 0; i = c.slots[i].next {
					links = append(links, c.slots[i].key)
				}
				if !slices.Equal(links, order) {
					t.Fatalf("op %d: recency order %v, want %v", op, links, order)
				}
			}
		})
	}
}
