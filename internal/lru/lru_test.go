package lru

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// item is a cached value that knows its own cost and counts its drops.
type item struct {
	id    int
	cost  int64
	drops atomic.Int32
}

var testCaches atomic.Int32 // gives every test cache its own metric series

func newTestCache(capacity int64) *Cache[string, *item] {
	return New[string](capacity,
		func(it *item) int64 { return it.cost },
		func(it *item) { it.drops.Add(1) },
		NewMetrics(fmt.Sprintf("lru-test-%d", testCaches.Add(1)), ""))
}

func TestCache(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int64
		run      func(t *testing.T, c *Cache[string, *item], its []*item)
		live     []int // indexes into its still cached afterwards
		dropped  []int // indexes dropped exactly once; the rest were never put
		hits     uint64
		misses   uint64
		evicted  uint64
	}{
		{
			name: "evicts least recently used first", capacity: 100,
			run: func(t *testing.T, c *Cache[string, *item], its []*item) {
				c.Put("a", its[0])
				c.Put("b", its[1])
				c.Get("a", nil) // b is now the LRU entry
				c.Put("c", its[2])
			},
			live: []int{0, 2}, dropped: []int{1}, hits: 1, evicted: 1,
		},
		{
			name: "one put may evict several", capacity: 100,
			run: func(t *testing.T, c *Cache[string, *item], its []*item) {
				c.Put("a", its[0])
				c.Put("b", its[1])
				its[3].cost = 90
				c.Put("d", its[3])
			},
			live: []int{3}, dropped: []int{0, 1}, evicted: 2,
		},
		{
			name: "oversized value is dropped, cache untouched", capacity: 100,
			run: func(t *testing.T, c *Cache[string, *item], its []*item) {
				c.Put("a", its[0])
				its[1].cost = 101
				c.Put("b", its[1])
				if _, ok := c.Get("b", nil); ok {
					t.Error("oversized value was cached")
				}
			},
			live: []int{0}, dropped: []int{1}, misses: 1,
		},
		{
			name: "replace drops the old value and refreshes recency", capacity: 100,
			run: func(t *testing.T, c *Cache[string, *item], its []*item) {
				c.Put("a", its[0])
				c.Put("b", its[1])
				c.Put("a", its[2]) // b is now the LRU entry
				c.Put("c", its[3])
				if got, _ := c.Peek("a"); got != its[2] {
					t.Errorf("Peek(a) = item %v, want the replacement", got)
				}
			},
			live: []int{2, 3}, dropped: []int{0, 1}, evicted: 1,
		},
		{
			name: "rejected entry is dropped and counts as a miss", capacity: 100,
			run: func(t *testing.T, c *Cache[string, *item], its []*item) {
				c.Put("a", its[0])
				if _, ok := c.Get("a", func(*item) bool { return false }); ok {
					t.Error("Get served a value its accept func rejected")
				}
				if _, ok := c.Get("a", nil); ok {
					t.Error("rejected entry stayed cached")
				}
			},
			dropped: []int{0}, misses: 2,
		},
		{
			name: "remove and purge", capacity: 100,
			run: func(t *testing.T, c *Cache[string, *item], its []*item) {
				c.Put("a", its[0])
				c.Put("b", its[1])
				if !c.Remove("a") || c.Remove("a") {
					t.Error("Remove did not report presence, then absence")
				}
				if n := c.Purge(); n != 1 {
					t.Errorf("Purge = %d, want 1", n)
				}
				c.Put("c", its[2])
			},
			live: []int{2}, dropped: []int{0, 1},
		},
		{
			name: "disabled cache stores nothing", capacity: 0,
			run: func(t *testing.T, c *Cache[string, *item], its []*item) {
				its[0].cost = 0 // even a free value must not slip into a disabled cache
				c.Put("a", its[0])
				c.Put("b", its[1])
				if _, ok := c.Get("a", nil); ok {
					t.Error("disabled cache served a value")
				}
				if c.Remove("a") || c.Purge() != 0 {
					t.Error("disabled cache held entries")
				}
			},
			dropped: []int{0, 1}, misses: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCache(tc.capacity)
			its := make([]*item, 4)
			for i := range its {
				its[i] = &item{id: i, cost: 40}
			}
			tc.run(t, c, its)
			if c.Len() != len(tc.live) {
				t.Errorf("Len = %d, want %d", c.Len(), len(tc.live))
			}
			if got := c.met.entries.Value(); got != float64(len(tc.live)) {
				t.Errorf("entries gauge = %v, want %d", got, len(tc.live))
			}
			wantDrops := make([]int32, len(its))
			for _, i := range tc.dropped {
				wantDrops[i] = 1
			}
			for i, it := range its {
				if got := it.drops.Load(); got != wantDrops[i] {
					t.Errorf("item %d dropped %d times, want %d", i, got, wantDrops[i])
				}
			}
			var used int64
			for _, i := range tc.live {
				used += its[i].cost
			}
			if c.used != used {
				t.Errorf("used = %d, want %d", c.used, used)
			}
			if h, m, e := c.met.hits.Value(), c.met.misses.Value(), c.met.evictions.Value(); h != tc.hits || m != tc.misses || e != tc.evicted {
				t.Errorf("hits/misses/evictions = %d/%d/%d, want %d/%d/%d", h, m, e, tc.hits, tc.misses, tc.evicted)
			}
		})
	}
}

// TestCacheMatchesModel drives a seeded random script of Get, Put, Remove and
// Purge against the cache and a naive slice model (most recently used first)
// and compares them after every step: same live keys and values — so every
// eviction picked the model's LRU victims — total cost within capacity, and
// the drop hook fired exactly once for each value that left and never for a
// live one.
func TestCacheMatchesModel(t *testing.T) {
	const capacity, steps = 64, 2000
	type slot struct {
		key string
		it  *item
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newTestCache(capacity)
		var model []slot // front = most recently used
		var all []*item
		find := func(k string) int {
			for i, s := range model {
				if s.key == k {
					return i
				}
			}
			return -1
		}
		for step := 0; step < steps; step++ {
			k := fmt.Sprintf("k%d", rng.Intn(24))
			i := find(k)
			switch op := rng.Intn(100); {
			case op < 45: // Get, one in eight with a rejecting accept func
				reject := rng.Intn(8) == 0
				got, ok := c.Get(k, func(*item) bool { return !reject })
				switch {
				case i < 0 || reject:
					if ok {
						t.Fatalf("seed %d step %d: Get(%s) hit, model says miss", seed, step, k)
					}
					if i >= 0 {
						model = append(model[:i], model[i+1:]...)
					}
				case !ok || got != model[i].it:
					t.Fatalf("seed %d step %d: Get(%s) = %v, %v; model holds item %d", seed, step, k, got, ok, model[i].it.id)
				default:
					s := model[i]
					model = append(model[:i], model[i+1:]...)
					model = append([]slot{s}, model...)
				}
			case op < 90: // Put, occasionally oversized
				it := &item{id: len(all), cost: 1 + int64(rng.Intn(20))}
				if rng.Intn(16) == 0 {
					it.cost = capacity + 1 + int64(rng.Intn(8))
				}
				all = append(all, it)
				c.Put(k, it)
				if i >= 0 {
					model = append(model[:i], model[i+1:]...)
				}
				if it.cost <= capacity {
					model = append([]slot{{k, it}}, model...)
					var used int64
					for _, s := range model {
						used += s.it.cost
					}
					for used > capacity {
						used -= model[len(model)-1].it.cost
						model = model[:len(model)-1]
					}
				}
			case op < 98:
				if got := c.Remove(k); got != (i >= 0) {
					t.Fatalf("seed %d step %d: Remove(%s) = %v", seed, step, k, got)
				}
				if i >= 0 {
					model = append(model[:i], model[i+1:]...)
				}
			default:
				if got := c.Purge(); got != len(model) {
					t.Fatalf("seed %d step %d: Purge = %d, model held %d", seed, step, got, len(model))
				}
				model = nil
			}

			live := make(map[*item]bool, len(model))
			var used int64
			for _, s := range model {
				live[s.it] = true
				used += s.it.cost
				if got, ok := c.Peek(s.key); !ok || got != s.it {
					t.Fatalf("seed %d step %d: model holds %s=item %d, cache has %v, %v", seed, step, s.key, s.it.id, got, ok)
				}
			}
			if c.Len() != len(model) || c.used != used || used > capacity {
				t.Fatalf("seed %d step %d: cache holds %d entries costing %d, model %d costing %d (capacity %d)",
					seed, step, c.Len(), c.used, len(model), used, capacity)
			}
			for _, it := range all {
				want := int32(1)
				if live[it] {
					want = 0
				}
				if got := it.drops.Load(); got != want {
					t.Fatalf("seed %d step %d: item %d (live=%v) dropped %d times", seed, step, it.id, live[it], got)
				}
			}
		}
	}
}

// TestCacheConcurrent hammers one small cache from several goroutines (run
// with -race) and then checks the ledger: every value handed to Put was
// dropped exactly once by the time the cache is purged.
func TestCacheConcurrent(t *testing.T) {
	c := newTestCache(16)
	const workers, perWorker = 4, 2000
	items := make([][]*item, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(12))
				switch rng.Intn(4) {
				case 0:
					it := &item{cost: 1 + int64(rng.Intn(4))}
					items[w] = append(items[w], it)
					c.Put(k, it)
				case 1:
					c.Remove(k)
				default:
					c.Get(k, func(it *item) bool { return it.drops.Load() == 0 })
				}
			}
		}(w)
	}
	wg.Wait()
	c.Purge()
	for w := range items {
		for _, it := range items[w] {
			if got := it.drops.Load(); got != 1 {
				t.Fatalf("value dropped %d times, want exactly 1", got)
			}
		}
	}
	if c.Len() != 0 || c.used != 0 {
		t.Fatalf("purged cache holds %d entries costing %d", c.Len(), c.used)
	}
}
