package core

import (
	"container/list"
	"sync"

	"medvault/internal/blockstore"
	"medvault/internal/obs"
)

// Default read-cache bounds. The block cache is sized in bytes because
// ciphertext versions vary widely; the negative cache in entries because
// each entry is just a record ID.
const (
	DefaultBlockCacheBytes = 32 << 20 // 32 MiB of ciphertext
	DefaultNegCacheEntries = 4096
)

// cacheMetrics is one cache layer's instrumentation. Each cache instance
// owns its set so each shard's caches report under a shard label while a
// one-shard vault keeps the original single-label series (the DEK
// layer's counters live in vcrypto under cache="dek"). The series are
// registered even for a disabled cache, so /metrics (and the benchmark
// that scrapes it) always exposes every layer.
type cacheMetrics struct {
	hits, misses, evictions *obs.Counter
	entries                 *obs.Gauge
}

func newCacheMetrics(layer, shard string) cacheMetrics {
	labels := []obs.Label{obs.L("cache", layer)}
	if shard != "" {
		labels = append(labels, obs.L("shard", shard))
	}
	return cacheMetrics{
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

// blockCache is a bytes-bounded LRU of ciphertext blocks keyed by their
// blockstore location. Every entry records the SHA-256 its bytes had when
// they were verified on fill, and a hit is only served when that hash equals
// the hash the caller's version metadata demands — so a cached read enforces
// ver.CtHash exactly as a disk read does, and a poisoned or recycled entry
// degrades to a miss instead of serving wrong bytes.
//
// Entries hold ciphertext only; a shredded record's cached blocks are as
// unreadable as its stored ones once the DEK is gone. Shred still drops them
// (and SanitizeMedia purges the cache) so the sanitize guarantee — bytes off
// the medium — extends to memory.
type blockCache struct {
	mu    sync.Mutex
	cap   int64 // max total data bytes; <= 0 disables the cache
	bytes int64
	ll    *list.List
	ent   map[blockstore.Ref]*list.Element
	met   cacheMetrics
}

type blockEntry struct {
	ref  blockstore.Ref
	hash [32]byte
	data []byte
}

func newBlockCache(capBytes int64, shard string) *blockCache {
	met := newCacheMetrics("block", shard)
	if capBytes <= 0 {
		return &blockCache{met: met}
	}
	return &blockCache{
		cap: capBytes,
		ll:  list.New(),
		ent: make(map[blockstore.Ref]*list.Element),
		met: met,
	}
}

func (c *blockCache) enabled() bool { return c != nil && c.cap > 0 }

// get returns the cached ciphertext at ref if its fill-time hash matches
// wantHash. The returned slice is shared with the cache and must be treated
// as read-only; readVersion only hashes and decrypts it.
func (c *blockCache) get(ref blockstore.Ref, wantHash [32]byte) ([]byte, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.ent[ref]
	if !ok {
		c.met.misses.Inc()
		return nil, false
	}
	e := el.Value.(*blockEntry)
	if e.hash != wantHash {
		// Same location, different expected content (e.g. the segment was
		// rewritten): this entry can never satisfy the caller. Drop it.
		c.removeLocked(el)
		c.met.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.met.hits.Inc()
	return e.data, true
}

// put caches data (whose hash the caller has already verified) under ref.
// Oversized blocks are skipped rather than flushing the whole cache.
func (c *blockCache) put(ref blockstore.Ref, hash [32]byte, data []byte) {
	if !c.enabled() || int64(len(data)) > c.cap {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.ent[ref]; ok {
		c.removeLocked(el)
	}
	c.ent[ref] = c.ll.PushFront(&blockEntry{ref: ref, hash: hash, data: data})
	c.bytes += int64(len(data))
	c.met.entries.Add(1)
	for c.bytes > c.cap {
		c.removeLocked(c.ll.Back())
		c.met.evictions.Inc()
	}
}

// invalidate drops the entries at the given refs (a shredded record's
// version locations).
func (c *blockCache) invalidate(refs []blockstore.Ref) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ref := range refs {
		if el, ok := c.ent[ref]; ok {
			c.removeLocked(el)
		}
	}
}

// purge drops everything; SanitizeMedia and Close call it.
func (c *blockCache) purge() {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.ent = make(map[blockstore.Ref]*list.Element)
	c.bytes = 0
	c.met.entries.Add(-float64(n))
}

func (c *blockCache) removeLocked(el *list.Element) {
	e := el.Value.(*blockEntry)
	delete(c.ent, e.ref)
	c.ll.Remove(el)
	c.bytes -= int64(len(e.data))
	c.met.entries.Add(-1)
}

// negCache is a bounded LRU set of record IDs known NOT to exist. Unknown-id
// probes are common (and audited as signal); the cache answers them without
// touching the registry. Soundness relies on the vault's stripe locks: the
// consult-and-add in the read paths runs under the record's stripe read
// lock, and Put publishes the record and removes the negative entry under
// the same stripe's write lock, so a stale "missing" entry cannot survive a
// completed Put. Shredded records are never cached here — shredded and
// not-found are distinct outcomes the audit trail must keep apart.
type negCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List
	ent map[string]*list.Element
	met cacheMetrics
}

func newNegCache(capacity int, shard string) *negCache {
	met := newCacheMetrics("negative", shard)
	if capacity <= 0 {
		return &negCache{met: met}
	}
	return &negCache{
		cap: capacity,
		ll:  list.New(),
		ent: make(map[string]*list.Element, capacity),
		met: met,
	}
}

func (c *negCache) enabled() bool { return c != nil && c.cap > 0 }

// has reports whether id is cached as nonexistent, counting the probe.
func (c *negCache) has(id string) bool {
	if !c.enabled() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.ent[id]
	if !ok {
		c.met.misses.Inc()
		return false
	}
	c.ll.MoveToFront(el)
	c.met.hits.Inc()
	return true
}

// add records id as nonexistent.
func (c *negCache) add(id string) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.ent[id]; ok {
		return
	}
	c.ent[id] = c.ll.PushFront(id)
	c.met.entries.Add(1)
	for c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back())
		c.met.evictions.Inc()
	}
}

// remove forgets id; Put (and Import) call it when the record comes into
// existence.
func (c *negCache) remove(id string) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.ent[id]; ok {
		c.removeLocked(el)
	}
}

func (c *negCache) purge() {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.ent = make(map[string]*list.Element, c.cap)
	c.met.entries.Add(-float64(n))
}

func (c *negCache) removeLocked(el *list.Element) {
	delete(c.ent, el.Value.(string))
	c.ll.Remove(el)
	c.met.entries.Add(-1)
}

// cacheCap translates a Config cache-size knob into an effective capacity:
// zero means "use the default", negative disables the cache.
func cacheCap[T int | int64](configured, def T) T {
	switch {
	case configured == 0:
		return def
	case configured < 0:
		return 0
	default:
		return configured
	}
}
