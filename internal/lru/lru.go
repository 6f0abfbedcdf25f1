// Package lru is MedVault's one bounded least-recently-used cache. The read
// caches in front of the key store and the block store are thin typed users
// of it, so the rule that makes a cache safe beside secure deletion —
// nothing that left the cache stays readable in memory — is implemented
// once, here, as the drop hook.
package lru

import (
	"container/list"
	"sync"

	"medvault/internal/obs"
)

// Metrics is one cache's instrumentation: the medvault_cache_* series under
// its cache= (and, for a shard of a multi-shard cluster, shard=) label. The
// series exist from construction, even for a disabled cache, so /metrics
// always exposes every layer.
type Metrics struct {
	hits, misses, evictions *obs.Counter
	entries                 *obs.Gauge
}

// NewMetrics resolves the series for one cache layer; shard may be empty.
func NewMetrics(layer, shard string) Metrics {
	labels := []obs.Label{obs.L("cache", layer)}
	if shard != "" {
		labels = append(labels, obs.L("shard", shard))
	}
	return Metrics{
		hits: obs.Default.Counter("medvault_cache_hits_total",
			"Read-cache hits by cache layer.", labels...),
		misses: obs.Default.Counter("medvault_cache_misses_total",
			"Read-cache misses by cache layer.", labels...),
		evictions: obs.Default.Counter("medvault_cache_evictions_total",
			"Read-cache evictions by cache layer.", labels...),
		entries: obs.Default.Gauge("medvault_cache_entries",
			"Current read-cache entries by cache layer.", labels...),
	}
}

// Cache is a bounded LRU map from K to V, safe for concurrent use. Its
// capacity is in cost units (entries, bytes — whatever cost returns); the
// least recently used entries are evicted once the total cost exceeds it.
//
// Put hands the value to the cache, which calls the drop hook exactly once
// for it: when it is evicted, removed, replaced or purged — or at once, if
// it is never stored (disabled cache, oversized value). drop runs under the
// cache lock, so a value is never dropped while Get's accept func is looking
// at it, and drop must not call back into the cache.
type Cache[K comparable, V any] struct {
	mu   sync.Mutex
	cap  int64 // <= 0 disables the cache: nothing is stored, every Get misses
	used int64
	cost func(V) int64
	drop func(V)
	ll   *list.List // of *entry[K, V]; front = most recently used
	ent  map[K]*list.Element
	met  Metrics
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// New returns an empty cache holding at most capacity cost units; a nil
// drop means values need no cleanup.
func New[K comparable, V any](capacity int64, cost func(V) int64, drop func(V), met Metrics) *Cache[K, V] {
	if drop == nil {
		drop = func(V) {}
	}
	return &Cache[K, V]{cap: capacity, cost: cost, drop: drop, ll: list.New(), ent: make(map[K]*list.Element), met: met}
}

// Get returns the value cached under k, refreshing its recency, and counts
// one hit or one miss. accept, when non-nil, sees the value first, under the
// cache lock — the place to copy out of a value the drop hook destroys. If
// it returns false the entry can never serve this caller: it is dropped and
// the lookup is a miss.
func (c *Cache[K, V]) Get(k K, accept func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.ent[k]; ok {
		e := el.Value.(*entry[K, V])
		if accept == nil || accept(e.val) {
			c.ll.MoveToFront(el)
			c.met.hits.Inc()
			return e.val, true
		}
		c.remove(el)
	}
	c.met.misses.Inc()
	var zero V
	return zero, false
}

// Put stores v under k as the most recently used entry, replacing (and
// dropping) any previous value. A value costing more than the whole cache
// is dropped instead of flushing everything else.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.ent[k]; ok {
		c.remove(el)
	}
	n := c.cost(v)
	if c.cap <= 0 || n > c.cap {
		c.drop(v)
		return
	}
	c.ent[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v, cost: n})
	c.used += n
	c.met.entries.Add(1)
	for c.used > c.cap {
		c.remove(c.ll.Back())
		c.met.evictions.Inc()
	}
}

// Remove drops k's entry, reporting whether there was one.
func (c *Cache[K, V]) Remove(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.ent[k]
	if ok {
		c.remove(el)
	}
	return ok
}

// Purge drops every entry, returning how many there were.
func (c *Cache[K, V]) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	for c.ll.Len() > 0 {
		c.remove(c.ll.Back())
	}
	return n
}

// Peek returns k's value without refreshing its recency or counting a
// lookup; audits and tests use it to see what the cache holds.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.ent[k]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// remove unlinks el and drops its value. Caller holds c.mu.
func (c *Cache[K, V]) remove(el *list.Element) {
	e := c.ll.Remove(el).(*entry[K, V])
	delete(c.ent, e.key)
	c.used -= e.cost
	c.met.entries.Add(-1)
	c.drop(e.val)
}
