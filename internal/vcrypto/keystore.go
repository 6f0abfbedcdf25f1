package vcrypto

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"

	"medvault/internal/frame"
	"medvault/internal/lru"
	"medvault/internal/obs"
	"medvault/internal/recno"
)

// KeyStore manages per-record data-encryption keys (DEKs). Every DEK is held
// only in wrapped form — AES-KW under a per-record KEK that derives from the
// store's master key and the record ID (keywrap.go) — so a snapshot of the
// KeyStore (for backup or migration) never exposes raw key material. A blob
// an older binary wrapped, AES-GCM under the master key with the ID as AAD,
// still unwraps. No key rotates: a store keeps its master key for life.
//
// Shred zeroes a record's wrapped DEK and leaves its slot as a tombstone.
// Once shredded, the record's ciphertext — every version, on
// every medium it was ever copied to — is permanently unreadable. This is the
// crypto-shredding construction MedVault uses to satisfy the secure-deletion
// and media re-use mandates (HIPAA §164.310(d)(2)(i)-(ii)).
//
// To keep the hot read path off the unwrap, the store carries a
// bounded plaintext-DEK cache (see dekcache.go). The cache is designed
// around invalidation first: Shred removes and zeroizes its entry
// synchronously — before Shred returns, no caller can obtain the key from
// any path — and evicted entries are zeroized before release.
//
// Per-record state is one fixed-size slot, indexed by the record's number in
// a recno.Table the store may share with the shard's other per-record tables.
//
// KeyStore is safe for concurrent use.
type KeyStore struct {
	mu     sync.RWMutex
	master Key                      // unwraps legacy AES-GCM blobs
	wrap   *KeyedMAC                // derives each record's AES-KW KEK from its ID
	recs   *recno.Table             // record numbers; lock order: mu → recs
	keys   keyTable                 // record number -> key state
	cache  *lru.Cache[string, *Key] // plaintext DEKs; lock order: mu → cache
}

// gcmWrappedLen is the size of a legacy wrapped DEK: Seal of a KeySize key.
// Blobs are told apart by size: kwWrappedLen is AES-KW's.
const gcmWrappedLen = KeySize + Overhead

// keySlot is one record's key: its AES-KW wrapped DEK while live (unless
// keyTable.legacy holds the key), zeros once the key is shredded (the slot
// is then the record's tombstone).
type keySlot struct {
	state slotState
	blob  [kwWrappedLen]byte
}

// keyTable is the per-record key state, indexed by record number. A live key
// an older binary wrapped is a 60-byte AES-GCM blob, which would make every
// slot 20 bytes larger, so legacy holds those few instead.
type keyTable struct {
	slots  []keySlot
	legacy map[uint32][]byte
}

// setLive makes blob, whose size checkWrapped accepted, record n's live key.
func (t *keyTable) setLive(n uint32, blob []byte) {
	t.slots = recno.Grow(t.slots, n)
	t.slots[n].state = slotLive
	t.dropLegacy(n)
	if len(blob) == kwWrappedLen {
		copy(t.slots[n].blob[:], blob)
		return
	}
	if t.legacy == nil {
		t.legacy = make(map[uint32][]byte)
	}
	t.legacy[n] = bytes.Clone(blob)
}

// shred makes record n's slot a tombstone, zeroing its blob.
func (t *keyTable) shred(n uint32) {
	t.slots = recno.Grow(t.slots, n)
	t.slots[n] = keySlot{state: slotShredded}
	t.dropLegacy(n)
}

// dropLegacy zeroes and forgets record n's legacy blob, if it has one.
func (t *keyTable) dropLegacy(n uint32) {
	if b, ok := t.legacy[n]; ok {
		clear(b)
		delete(t.legacy, n)
	}
}

// wrapped returns live record n's blob, which the caller must not modify.
func (t *keyTable) wrapped(n uint32) []byte {
	if b, ok := t.legacy[n]; ok {
		return b
	}
	return t.slots[n].blob[:]
}

type slotState uint8

const (
	slotEmpty    slotState = iota // no key was ever registered
	slotLive                      // blob wraps the DEK: AES-KW, or a legacy AES-GCM seal
	slotShredded                  // the key was destroyed
)

// NewKeyStore returns an empty KeyStore protected by master, with the
// default-sized DEK cache.
func NewKeyStore(master Key) *KeyStore {
	return NewKeyStoreCached(master, DefaultDEKCacheCap)
}

// NewKeyStoreCached returns an empty KeyStore protected by master with a
// DEK cache bounded to cacheCap entries; cacheCap <= 0 disables caching, so
// every Get pays the full unwrap.
func NewKeyStoreCached(master Key, cacheCap int) *KeyStore {
	return NewKeyStoreOn(recno.New(), master, cacheCap)
}

// NewKeyStoreOn is NewKeyStoreCached numbering records in recs, the table a
// shard shares among its per-record stores.
func NewKeyStoreOn(recs *recno.Table, master Key, cacheCap int) *KeyStore {
	return &KeyStore{master: master, wrap: wrapMAC(master), recs: recs, cache: newDEKCache(cacheCap)}
}

// wrapMAC derives the per-record KEKs of the store protected by master.
func wrapMAC(master Key) *KeyedMAC {
	return NewKeyedMAC(DeriveKey(master, "vcrypto/dek-wrap/kw"))
}

// find returns id's record number if it has a slot; the caller holds ks.mu.
// It never numbers id, so a lookup of an unknown ID leaves the table as it
// was.
func (ks *KeyStore) find(id string) (uint32, bool) {
	n, ok := ks.recs.Find(id)
	return n, ok && int(n) < len(ks.keys.slots)
}

// state returns the state of id's slot; the caller holds ks.mu.
func (ks *KeyStore) state(id string) slotState {
	if n, ok := ks.find(id); ok {
		return ks.keys.slots[n].state
	}
	return slotEmpty
}

// register makes blob the live key of id, whose slot is empty, numbering id
// if need be; the caller holds ks.mu exclusively.
func (ks *KeyStore) register(id string, blob []byte) {
	ks.keys.setLive(ks.recs.Intern(id), blob)
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
	ks.register(id, blob)
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
	if err := ks.vacant(id); err != nil {
		return Key{}, nil, err
	}
	dek, err := NewKey()
	if err != nil {
		return Key{}, nil, err
	}
	return dek, wrapDEK(ks.wrap, id, dek), nil
}

// wrapDEK wraps dek with AES-KW under id's KEK.
func wrapDEK(wrap *KeyedMAC, id string, dek Key) []byte {
	return kwWrap(recordKEK(wrap, id), dek[:])
}

// vacant reports whether a key may be registered for id: it has none, live
// or destroyed. The caller holds ks.mu.
func (ks *KeyStore) vacant(id string) error {
	switch ks.state(id) {
	case slotShredded:
		return fmt.Errorf("%w: %s", ErrShredded, id)
	case slotLive:
		return fmt.Errorf("%w: %s", ErrKeyExists, id)
	}
	return nil
}

// Get unwraps and returns the DEK for id. It returns ErrShredded if the key
// was destroyed and ErrNoKey if it never existed. A cache hit skips the
// unwrap entirely; Shred's synchronous invalidation guarantees a hit
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
	// Copy the blob under the read lock: Shred zeroes it in place under the
	// write lock, so it may not be touched after RUnlock.
	state := slotEmpty
	var buf [gcmWrappedLen]byte
	var blob []byte
	if n, ok := ks.find(id); ok {
		state = ks.keys.slots[n].state
		blob = buf[:copy(buf[:], ks.keys.wrapped(n))]
	}
	ks.mu.RUnlock()
	switch state {
	case slotShredded:
		return Key{}, false, fmt.Errorf("%w: %s", ErrShredded, id)
	case slotEmpty:
		return Key{}, false, fmt.Errorf("%w: %s", ErrNoKey, id)
	}
	dek, err := unwrap(ks.master, ks.wrap, id, blob)
	if err != nil {
		return Key{}, false, err
	}
	// Insert under the write lock, re-checking the slot: a Shred may have
	// completed between RUnlock and here, and caching the key it just
	// destroyed would resurrect it.
	ks.mu.Lock()
	if ks.state(id) == slotLive {
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
	n, ok := ks.find(id)
	switch {
	case !ok || ks.keys.slots[n].state == slotEmpty:
		return fmt.Errorf("%w: %s", ErrNoKey, id)
	case ks.keys.slots[n].state == slotShredded:
		return nil
	}
	ks.keys.shred(n)
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

// unwrap opens id's wrapped DEK blob, zeroizing the intermediate: an AES-KW
// blob under id's KEK from wrap, a legacy AES-GCM one under master.
func unwrap(master Key, wrap *KeyedMAC, id string, blob []byte) (Key, error) {
	var raw []byte
	var err error
	if len(blob) == kwWrappedLen {
		raw, err = kwUnwrap(recordKEK(wrap, id), blob)
	} else {
		raw, err = Open(master, blob, []byte(id))
	}
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
// from a write-ahead log, or received in a backup. The blob must be a wrapped
// key's size and unwrap under the store's master key; a foreign blob is
// refused here rather than on first Get. Like Create, adoption warms the DEK
// cache.
func (ks *KeyStore) AdoptWrapped(id string, blob []byte) error {
	if err := checkWrapped(id, blob); err != nil {
		return err
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if err := ks.vacant(id); err != nil {
		return err
	}
	dek, err := unwrap(ks.master, ks.wrap, id, blob)
	if err != nil {
		return err
	}
	ks.register(id, blob)
	ks.cachePut(id, dek)
	return nil
}

// checkWrapped rejects a blob that cannot be a wrapped DEK by its size.
func checkWrapped(id string, blob []byte) error {
	if len(blob) != kwWrappedLen && len(blob) != gcmWrappedLen {
		return fmt.Errorf("%w: wrapped DEK of %s is %d bytes, want %d (or a legacy %d)", ErrBadKey, id, len(blob), kwWrappedLen, gcmWrappedLen)
	}
	return nil
}

// WrappedFor returns the wrapped (encrypted) DEK blob for id, suitable for
// durable logging. It never returns plaintext key material.
func (ks *KeyStore) WrappedFor(id string) ([]byte, error) {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	n, ok := ks.find(id)
	switch {
	case !ok || ks.keys.slots[n].state == slotEmpty:
		return nil, fmt.Errorf("%w: %s", ErrNoKey, id)
	case ks.keys.slots[n].state == slotShredded:
		return nil, fmt.Errorf("%w: %s", ErrShredded, id)
	}
	return bytes.Clone(ks.keys.wrapped(n)), nil
}

// IsShredded reports whether id's key has been destroyed.
func (ks *KeyStore) IsShredded(id string) bool {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.state(id) == slotShredded
}

// Len returns the number of live (unshredded) keys.
func (ks *KeyStore) Len() int {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	n := 0
	for i := range ks.keys.slots {
		if ks.keys.slots[i].state == slotLive {
			n++
		}
	}
	return n
}

// IDs returns the record IDs with live keys, sorted.
func (ks *KeyStore) IDs() []string {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	live := ks.inState(slotLive)
	ids := make([]string, len(live))
	for i, e := range live {
		ids[i] = e.id
	}
	return ids
}

// numbered is a record ID with its number.
type numbered struct {
	id string
	n  uint32
}

// inState returns the records whose slot is in state, sorted by ID; the
// caller holds ks.mu.
func (ks *KeyStore) inState(state slotState) []numbered {
	var out []numbered
	for n := range ks.keys.slots {
		if ks.keys.slots[n].state == state {
			out = append(out, numbered{ks.recs.ID(uint32(n)), uint32(n)})
		}
	}
	slices.SortFunc(out, func(a, b numbered) int { return strings.Compare(a.id, b.id) })
	return out
}

// keystore snapshot wire format:
//
//	magic "MVKS" | u16 version | u32 nLive  { u32 idLen id u32 blobLen blob }*
//	               u32 nShred { u32 idLen id }*
//
// where blob is 40 bytes (AES-KW) or, decoded and never written by Mint or
// Create, a legacy 60 (AES-GCM).
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
	live := ks.inState(slotLive)
	b = frame.AppendCount(b, len(live))
	for _, e := range live {
		b = frame.AppendStr(b, e.id)
		b = frame.AppendBytes(b, ks.keys.wrapped(e.n))
	}
	dead := ks.inState(slotShredded)
	b = frame.AppendCount(b, len(dead))
	for _, e := range dead {
		b = frame.AppendStr(b, e.id)
	}
	return b
}

// Restore replaces the store's keys and tombstones with those of a Snapshot
// taken under the same master key; the DEK cache keeps its bound and starts
// cold. A wrapped key of the wrong size, or a record listed twice, is
// refused here; whether a key unwraps is checked lazily, so a corrupted one
// surfaces as ErrDecrypt on first Get. On error the store is unchanged.
func (ks *KeyStore) Restore(snap []byte) error {
	r := frame.NewReader(snap)
	if !r.Magic(ksMagic) {
		return fmt.Errorf("vcrypto: bad keystore snapshot magic")
	}
	if ver := r.U16(); ver != ksVersion {
		return fmt.Errorf("vcrypto: unsupported keystore snapshot version %d", ver)
	}
	type key struct {
		id   string
		blob []byte
	}
	live := make([]key, r.Count(8)) // id and blob: two length prefixes
	for i := range live {
		live[i] = key{r.Str(), r.Bytes()}
	}
	dead := make([]string, r.Count(4))
	for i := range dead {
		dead[i] = r.Str()
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("vcrypto: truncated keystore snapshot: %w", err)
	}
	for _, k := range live {
		if err := checkWrapped(k.id, k.blob); err != nil {
			return fmt.Errorf("vcrypto: keystore snapshot: %w", err)
		}
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	var keys keyTable
	fill := func(id string, blob []byte) error {
		n := ks.recs.Intern(id)
		if int(n) < len(keys.slots) && keys.slots[n].state != slotEmpty {
			return fmt.Errorf("vcrypto: keystore snapshot lists %s twice", id)
		}
		if blob != nil {
			keys.setLive(n, blob)
		} else {
			keys.shred(n)
		}
		return nil
	}
	for _, k := range live {
		if err := fill(k.id, k.blob); err != nil {
			return err
		}
	}
	for _, id := range dead {
		if err := fill(id, nil); err != nil {
			return err
		}
	}
	ks.keys = keys
	ks.cache.Purge()
	return nil
}
