package vcrypto

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"medvault/internal/frame"
	"medvault/internal/lru"
	"medvault/internal/obs"
)

// KeyStore manages per-record data-encryption keys (DEKs). Every DEK is held
// only in wrapped form — sealed with AES-GCM under the store's master key —
// so a snapshot of the KeyStore (for backup or migration) never exposes raw
// key material.
//
// Shred destroys a record's wrapped DEK and remembers the record ID in a
// tombstone set. Once shredded, the record's ciphertext — every version, on
// every medium it was ever copied to — is permanently unreadable. This is the
// crypto-shredding construction MedVault uses to satisfy the secure-deletion
// and media re-use mandates (HIPAA §164.310(d)(2)(i)-(ii)).
//
// To keep the hot read path off the AES-GCM unwrap, the store carries a
// bounded plaintext-DEK cache (see dekcache.go). The cache is designed
// around invalidation first: Shred removes and zeroizes its entry
// synchronously — before Shred returns, no caller can obtain the key from
// any path — and evicted entries are zeroized before release. Rewrap
// deliberately does NOT invalidate: rotation changes only the wrapping of
// each DEK, never the DEK itself, so cached plaintext keys stay valid.
//
// KeyStore is safe for concurrent use.
type KeyStore struct {
	mu       sync.RWMutex
	master   Key
	wrapped  map[string][]byte        // record ID -> Seal(master, DEK, aad=id)
	shredded map[string]bool          // tombstones for destroyed keys
	cache    *lru.Cache[string, *Key] // plaintext DEKs; lock order: mu → cache
}

// NewKeyStore returns an empty KeyStore protected by master, with the
// default-sized DEK cache.
func NewKeyStore(master Key) *KeyStore {
	return NewKeyStoreCached(master, DefaultDEKCacheCap)
}

// NewKeyStoreCached returns an empty KeyStore protected by master with a
// DEK cache bounded to cacheCap entries; cacheCap <= 0 disables caching, so
// every Get pays the full unwrap.
func NewKeyStoreCached(master Key, cacheCap int) *KeyStore {
	return &KeyStore{
		master:   master,
		wrapped:  make(map[string][]byte),
		shredded: make(map[string]bool),
		cache:    newDEKCache(cacheCap),
	}
}

// Create generates, wraps, and registers a fresh DEK for id, returning the
// plaintext DEK for immediate use. It fails with ErrKeyExists if a live key
// is already registered and ErrShredded if id's key was destroyed: record IDs
// are never reused after deletion, so an expired-and-shredded record cannot
// be silently resurrected.
func (ks *KeyStore) Create(id string) (Key, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	dek, blob, err := ks.mint(id)
	if err != nil {
		return Key{}, err
	}
	ks.wrapped[id] = blob
	// Writers read what they just wrote: warm the cache so the first Get
	// after a Put is already a hit. Safe under ks.mu (lock order mu → cache).
	ks.cachePut(id, dek)
	return dek, nil
}

// Mint is Create without the registration: a fresh DEK for id and its wrapped
// form, of which the store keeps nothing. A writer seals under the DEK, logs
// the blob, and calls AdoptWrapped once the write is durable — a write that
// fails leaves no key for data the system does not hold.
func (ks *KeyStore) Mint(id string) (Key, []byte, error) {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.mint(id)
}

// mint generates and wraps a DEK for id; the caller holds ks.mu.
func (ks *KeyStore) mint(id string) (Key, []byte, error) {
	if ks.shredded[id] {
		return Key{}, nil, fmt.Errorf("%w: %s", ErrShredded, id)
	}
	if _, ok := ks.wrapped[id]; ok {
		return Key{}, nil, fmt.Errorf("%w: %s", ErrKeyExists, id)
	}
	dek, err := NewKey()
	if err != nil {
		return Key{}, nil, err
	}
	blob, err := Seal(ks.master, dek[:], []byte(id))
	if err != nil {
		return Key{}, nil, fmt.Errorf("vcrypto: wrapping DEK for %s: %w", id, err)
	}
	return dek, blob, nil
}

// Get unwraps and returns the DEK for id. It returns ErrShredded if the key
// was destroyed and ErrNoKey if it never existed. A cache hit skips the
// AES-GCM unwrap entirely; Shred's synchronous invalidation guarantees a hit
// can never serve a destroyed key.
func (ks *KeyStore) Get(id string) (Key, error) {
	dek, _, err := ks.get(id)
	return dek, err
}

// GetCtx is Get recording a "keystore.get" span (with a dek_cache hit/miss
// attribute) on the trace carried by ctx.
func (ks *KeyStore) GetCtx(ctx context.Context, id string) (Key, error) {
	_, sp := obs.StartSpan(ctx, "keystore.get")
	dek, hit, err := ks.get(id)
	if hit {
		sp.SetAttr("dek_cache", "hit")
	} else {
		sp.SetAttr("dek_cache", "miss")
	}
	sp.End(err)
	return dek, err
}

// cachePut gives the cache its own copy of dek, which its drop hook zeroizes.
func (ks *KeyStore) cachePut(id string, dek Key) { ks.cache.Put(id, &dek) }

func (ks *KeyStore) get(id string) (Key, bool, error) {
	// Copy the key out under the cache lock: once Get returns, an eviction
	// or Shred may zeroize the cache's copy.
	var dek Key
	if _, ok := ks.cache.Get(id, func(k *Key) bool { dek = *k; return true }); ok {
		return dek, true, nil
	}
	ks.mu.RLock()
	// Copy the wrapped blob and master under the read lock: Shred zeroes the
	// blob in place and Rewrap swaps the master, both under the write lock,
	// so neither may be touched after RUnlock.
	master := ks.master
	shred := ks.shredded[id]
	var blob []byte
	if b, ok := ks.wrapped[id]; ok {
		blob = append([]byte(nil), b...)
	}
	ks.mu.RUnlock()
	if shred {
		return Key{}, false, fmt.Errorf("%w: %s", ErrShredded, id)
	}
	if blob == nil {
		return Key{}, false, fmt.Errorf("%w: %s", ErrNoKey, id)
	}
	dek, err := unwrap(master, id, blob)
	if err != nil {
		return Key{}, false, err
	}
	// Insert under the write lock, re-checking the tombstone: a Shred may
	// have completed between RUnlock and here, and caching the key it just
	// destroyed would resurrect it. The blob-presence check covers the same
	// window for stores mutated by other paths.
	ks.mu.Lock()
	if _, live := ks.wrapped[id]; live && !ks.shredded[id] {
		ks.cachePut(id, dek)
	}
	ks.mu.Unlock()
	return dek, false, nil
}

// Shred destroys the DEK for id, making all ciphertext sealed under it
// permanently unreadable. Shredding is idempotent; shredding a key that never
// existed returns ErrNoKey.
func (ks *KeyStore) Shred(id string) error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if ks.shredded[id] {
		return nil
	}
	blob, ok := ks.wrapped[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoKey, id)
	}
	for i := range blob {
		blob[i] = 0
	}
	delete(ks.wrapped, id)
	ks.shredded[id] = true
	// Invalidate the plaintext-DEK cache synchronously, before Shred returns:
	// secure deletion is only complete once no copy of the key — wrapped or
	// cached — remains obtainable. The entry is zeroized, not just dropped.
	if !TestHookKeepDEKCacheOnShred.Load() {
		ks.cache.Remove(id)
	}
	return nil
}

// Purge zeroizes and drops every cached plaintext DEK, returning how many
// entries were held. Vault Close calls it so no key material outlives the
// store's lifecycle; the wrapped blobs are untouched.
func (ks *KeyStore) Purge() int {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.cache.Purge()
}

// HasCachedDEK reports whether a plaintext DEK for id is currently cached.
// VerifyAll uses it to prove that no shredded record's key survives in
// memory; tests use it to pin cache lifecycle semantics.
func (ks *KeyStore) HasCachedDEK(id string) bool {
	_, ok := ks.cache.Peek(id)
	return ok
}

// CachedDEKs returns the number of plaintext DEKs currently cached.
func (ks *KeyStore) CachedDEKs() int {
	return ks.cache.Len()
}

// unwrap opens a wrapped DEK blob under master, zeroizing the intermediate.
func unwrap(master Key, id string, blob []byte) (Key, error) {
	raw, err := Open(master, blob, []byte(id))
	if err != nil {
		return Key{}, fmt.Errorf("vcrypto: unwrapping DEK for %s: %w", id, err)
	}
	dek, err := KeyFromBytes(raw)
	for i := range raw {
		raw[i] = 0
	}
	return dek, err
}

// AdoptWrapped registers a wrapped DEK blob for id — minted by Mint, replayed
// from a write-ahead log, or received in a backup. The blob must unwrap under
// the store's master key; a foreign blob is refused here rather than on first
// Get. Like Create, adoption warms the DEK cache.
func (ks *KeyStore) AdoptWrapped(id string, blob []byte) error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if ks.shredded[id] {
		return fmt.Errorf("%w: %s", ErrShredded, id)
	}
	if _, ok := ks.wrapped[id]; ok {
		return fmt.Errorf("%w: %s", ErrKeyExists, id)
	}
	dek, err := unwrap(ks.master, id, blob)
	if err != nil {
		return err
	}
	ks.wrapped[id] = append([]byte(nil), blob...)
	ks.cachePut(id, dek)
	return nil
}

// WrappedFor returns the wrapped (encrypted) DEK blob for id, suitable for
// durable logging. It never returns plaintext key material.
func (ks *KeyStore) WrappedFor(id string) ([]byte, error) {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	if ks.shredded[id] {
		return nil, fmt.Errorf("%w: %s", ErrShredded, id)
	}
	blob, ok := ks.wrapped[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoKey, id)
	}
	return append([]byte(nil), blob...), nil
}

// Rewrap re-encrypts every live DEK under newMaster and switches the store
// to it — periodic key rotation, as key-management policy (and HIPAA's
// "reasonable safeguards" guidance) expects. Data keys themselves do not
// change, so no ciphertext needs rewriting — and for the same reason the
// plaintext-DEK cache is deliberately left warm: its entries are the DEKs,
// which rotation does not touch. On any failure the store is left unchanged.
func (ks *KeyStore) Rewrap(newMaster Key) error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	rewrapped := make(map[string][]byte, len(ks.wrapped))
	for id, blob := range ks.wrapped {
		raw, err := Open(ks.master, blob, []byte(id))
		if err != nil {
			return fmt.Errorf("vcrypto: rewrap: unwrapping %s: %w", id, err)
		}
		newBlob, err := Seal(newMaster, raw, []byte(id))
		for i := range raw {
			raw[i] = 0
		}
		if err != nil {
			return fmt.Errorf("vcrypto: rewrap: wrapping %s: %w", id, err)
		}
		rewrapped[id] = newBlob
	}
	for _, blob := range ks.wrapped {
		for i := range blob {
			blob[i] = 0
		}
	}
	ks.wrapped = rewrapped
	ks.master = newMaster
	return nil
}

// IsShredded reports whether id's key has been destroyed.
func (ks *KeyStore) IsShredded(id string) bool {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.shredded[id]
}

// Len returns the number of live (unshredded) keys.
func (ks *KeyStore) Len() int {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return len(ks.wrapped)
}

// IDs returns the record IDs with live keys, sorted.
func (ks *KeyStore) IDs() []string {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	ids := make([]string, 0, len(ks.wrapped))
	for id := range ks.wrapped {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// keystore snapshot wire format:
//
//	magic "MVKS" | u16 version | u32 nLive  { u32 idLen id u32 blobLen blob }*
//	               u32 nShred { u32 idLen id }*
const (
	ksMagic   = "MVKS"
	ksVersion = 1
)

// Snapshot serializes the KeyStore (wrapped keys and tombstones) for backup
// or migration. The output contains no plaintext key material.
func (ks *KeyStore) Snapshot() []byte {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	b := binary.BigEndian.AppendUint16([]byte(ksMagic), ksVersion)
	b = frame.AppendCount(b, len(ks.wrapped))
	for _, id := range sortedKeys(ks.wrapped) {
		b = frame.AppendStr(b, id)
		b = frame.AppendBytes(b, ks.wrapped[id])
	}
	b = frame.AppendCount(b, len(ks.shredded))
	for _, id := range sortedKeys(ks.shredded) {
		b = frame.AppendStr(b, id)
	}
	return b
}

// LoadKeyStore reconstructs a KeyStore from a Snapshot, using master to
// unwrap keys on demand, with the default-sized DEK cache.
func LoadKeyStore(master Key, snap []byte) (*KeyStore, error) {
	ks := NewKeyStore(master)
	if err := ks.Restore(snap); err != nil {
		return nil, err
	}
	return ks, nil
}

// Restore replaces the store's keys and tombstones with those of a Snapshot
// taken under the same master key; the DEK cache keeps its bound and starts
// cold. The snapshot's integrity is verified lazily: a corrupted wrapped key
// surfaces as ErrDecrypt on first Get. On error the store is unchanged.
func (ks *KeyStore) Restore(snap []byte) error {
	r := frame.NewReader(snap)
	if !r.Magic(ksMagic) {
		return fmt.Errorf("vcrypto: bad keystore snapshot magic")
	}
	if ver := r.U16(); ver != ksVersion {
		return fmt.Errorf("vcrypto: unsupported keystore snapshot version %d", ver)
	}
	wrapped, shredded := make(map[string][]byte), make(map[string]bool)
	for i, n := 0, r.Count(8); i < n; i++ { // id and blob: two length prefixes
		id := r.Str()
		wrapped[id] = r.Bytes()
	}
	for i, n := 0, r.Count(4); i < n; i++ {
		shredded[r.Str()] = true
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("vcrypto: truncated keystore snapshot: %w", err)
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.wrapped, ks.shredded = wrapped, shredded
	ks.cache.Purge()
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
