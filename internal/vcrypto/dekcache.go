package vcrypto

import (
	"sync/atomic"

	"medvault/internal/lru"
)

// DefaultDEKCacheCap is the default capacity (in entries) of a KeyStore's
// plaintext-DEK cache. Each entry is one 32-byte key plus its record ID, so
// even the default bound costs well under a megabyte.
const DefaultDEKCacheCap = 1024

// TestHookKeepDEKCacheOnShred, when set, makes Shred skip the synchronous
// DEK-cache invalidation it normally performs. It exists ONLY so the
// compliance harnesses (internal/sim, the core tests) can prove they would
// catch a cached plaintext key outliving crypto-shredding — the exact bug
// class the cache is designed around. Production code must never set it.
var TestHookKeepDEKCacheOnShred atomic.Bool

// newDEKCache returns a bounded LRU of unwrapped (plaintext) DEKs by record
// ID; capacity <= 0 disables it. Key hygiene is the design center, not
// speed: the cache holds its own copy of each key, and the drop hook
// zeroizes that copy in place whenever an entry leaves — evicted, replaced,
// invalidated by Shred, or purged on Close. Its lock is only ever taken
// after KeyStore.mu when both are held, never the other way around.
func newDEKCache(capacity int) *lru.Cache[string, *Key] {
	return lru.New[string](int64(capacity),
		func(*Key) int64 { return 1 }, func(k *Key) { *k = Key{} },
		lru.NewMetrics("dek", ""))
}
