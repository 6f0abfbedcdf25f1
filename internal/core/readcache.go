package core

import (
	"medvault/internal/blockstore"
	"medvault/internal/lru"
)

// DefaultBlockCacheBytes is the default block-cache bound: 32 MiB of
// ciphertext. The cache is sized in bytes because versions vary widely.
const DefaultBlockCacheBytes = 32 << 20

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
	lru *lru.Cache[blockstore.Ref, cachedBlock]
}

type cachedBlock struct {
	hash [32]byte
	data []byte
}

// newBlockCache returns a cache of at most capBytes of ciphertext (<= 0
// disables it); a non-empty shard labels its metrics.
func newBlockCache(capBytes int64, shard string) blockCache {
	return blockCache{lru.New[blockstore.Ref](capBytes,
		func(b cachedBlock) int64 { return int64(len(b.data)) }, nil,
		lru.NewMetrics("block", shard))}
}

// get returns the cached ciphertext at ref if its fill-time hash matches
// wantHash; an entry at the same location with different content (e.g. the
// segment was rewritten) is dropped. The returned slice is shared with the
// cache and must be treated as read-only; readVersion only hashes and
// decrypts it.
func (c blockCache) get(ref blockstore.Ref, wantHash [32]byte) ([]byte, bool) {
	b, ok := c.lru.Get(ref, func(b cachedBlock) bool { return b.hash == wantHash })
	return b.data, ok
}

// put caches data (whose hash the caller has already verified) under ref,
// copied out of its meta.wal entry, if any: the cache keeps what it counts.
func (c blockCache) put(ref blockstore.Ref, hash [32]byte, data []byte) {
	if ref.Segment == walSegment {
		data = append([]byte(nil), data...)
	}
	c.lru.Put(ref, cachedBlock{hash: hash, data: data})
}

// invalidate drops the entries at the given refs (a shredded record's
// version locations).
func (c blockCache) invalidate(refs []blockstore.Ref) {
	for _, ref := range refs {
		c.lru.Remove(ref)
	}
}

// purge drops everything; SanitizeMedia and Close call it.
func (c blockCache) purge() { c.lru.Purge() }

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
