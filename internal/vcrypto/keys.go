// Package vcrypto implements the cryptographic substrate of MedVault: a
// two-level key hierarchy (master key-encryption-key wrapping per-record data
// keys), AES-256-GCM envelope encryption, Ed25519 signing, and HMAC-based
// token derivation.
//
// The key hierarchy is what makes secure deletion (crypto-shredding)
// possible: every record is encrypted under its own data-encryption key
// (DEK), each DEK is stored only in wrapped (encrypted) form under the master
// key, and destroying the wrapped DEK renders every ciphertext version of the
// record permanently unreadable — including copies on re-used or discarded
// media, which is exactly the HIPAA §164.310(d)(2) disposal and media re-use
// requirement the paper discusses.
package vcrypto

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"sync"
)

// KeySize is the byte length of all symmetric keys (AES-256, HMAC-SHA-256).
const KeySize = 32

// Errors returned by the package.
var (
	// ErrShredded indicates the data key for a record has been destroyed;
	// its ciphertext is permanently unreadable.
	ErrShredded = errors.New("vcrypto: key shredded")
	// ErrNoKey indicates no data key exists for the requested record.
	ErrNoKey = errors.New("vcrypto: no such key")
	// ErrKeyExists indicates a data key is already registered for the record.
	ErrKeyExists = errors.New("vcrypto: key already exists")
	// ErrBadKey indicates key material of the wrong size or content.
	ErrBadKey = errors.New("vcrypto: malformed key material")
	// ErrDecrypt indicates authenticated decryption failed: wrong key, or the
	// ciphertext or its associated data was tampered with.
	ErrDecrypt = errors.New("vcrypto: decryption failed (tampered or wrong key)")
)

// Key is a fixed-size symmetric key.
type Key [KeySize]byte

// NewKey returns a fresh random key from crypto/rand.
func NewKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("vcrypto: generating key: %w", err)
	}
	return k, nil
}

// KeyFromBytes copies b into a Key. b must be exactly KeySize bytes.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return k, fmt.Errorf("%w: got %d bytes, want %d", ErrBadKey, len(b), KeySize)
	}
	copy(k[:], b)
	return k, nil
}

// Fingerprint returns a short hex identifier of the key, safe to log:
// it is the first 8 bytes of SHA-256(key) and reveals nothing useful about
// the key material.
func (k Key) Fingerprint() string {
	sum := sha256.Sum256(k[:])
	return hex.EncodeToString(sum[:8])
}

// DeriveKey deterministically derives a purpose-bound subkey from a parent
// key using HMAC-SHA-256 (a one-step HKDF-Expand). Distinct labels yield
// independent keys, so one master secret can safely serve the envelope layer,
// the index tokenizer, and the audit MAC without key reuse across domains.
func DeriveKey(parent Key, label string) Key {
	mac := hmac.New(sha256.New, parent[:])
	mac.Write([]byte("medvault/derive/v1\x00"))
	mac.Write([]byte(label))
	var out Key
	copy(out[:], mac.Sum(nil))
	return out
}

// MAC computes HMAC-SHA-256 over data with the given key, for one-shot uses;
// a key that MACs on every operation is a KeyedMAC.
func MAC(key Key, data []byte) []byte {
	mac := hmac.New(sha256.New, key[:])
	mac.Write(data)
	return mac.Sum(nil)
}

// KeyedMAC is HMAC-SHA-256 under one key, for the MACs computed per
// operation: search tokens, audit-event and custody-event MACs. hmac.New
// hashes the key into fresh inner and outer states on every call; a KeyedMAC
// keeps keyed states in a pool and resets one instead. Its sums equal MAC's.
// Safe for concurrent use.
type KeyedMAC struct {
	pool sync.Pool // of *keyedHash, each Reset before it returns
}

// keyedHash is a keyed HMAC state and room for one sum, so a check compares
// against a sum that allocates nothing.
type keyedHash struct {
	h   hash.Hash
	sum [sha256.Size]byte
}

// NewKeyedMAC returns a KeyedMAC under key.
func NewKeyedMAC(key Key) *KeyedMAC {
	m := &KeyedMAC{}
	m.pool.New = func() any { return &keyedHash{h: hmac.New(sha256.New, key[:])} }
	return m
}

// Sum appends HMAC-SHA-256(key, data) to dst and returns the result.
func (m *KeyedMAC) Sum(dst, data []byte) []byte {
	k := m.pool.Get().(*keyedHash)
	k.h.Write(data)
	dst = k.h.Sum(dst)
	k.h.Reset()
	m.pool.Put(k)
	return dst
}

// check reports whether the first len(want) bytes of data's MAC are want, in
// constant time; want must be non-empty and at most a whole MAC.
func (m *KeyedMAC) check(data, want []byte) bool {
	k := m.pool.Get().(*keyedHash)
	k.h.Write(data)
	ok := hmac.Equal(k.h.Sum(k.sum[:0])[:len(want)], want)
	k.h.Reset()
	m.pool.Put(k)
	return ok
}

// Verify reports whether sum is the MAC of data, in constant time.
func (m *KeyedMAC) Verify(data, sum []byte) bool {
	return len(sum) == sha256.Size && m.check(data, sum)
}

// TagSize is the byte length of a truncated tag: HMAC-SHA-256-128 (RFC
// 4868), half the hash output, the floor RFC 2104 §5 sets. A keyless forger
// succeeds with probability 2^-128 per attempt.
const TagSize = 16

// Tag appends the first TagSize bytes of HMAC-SHA-256(key, data) to dst and
// returns the result: the MAC a record stores when every byte of it is paid
// for on the medium.
func (m *KeyedMAC) Tag(dst, data []byte) []byte {
	n := len(dst) + TagSize
	return m.Sum(dst, data)[:n:n] // one allocation; the cap hides the rest of the MAC
}

// VerifyTag reports whether tag is the Tag of data, in constant time. A tag
// of any length but TagSize is refused, so neither a shorter prefix nor the
// whole MAC passes for one.
func (m *KeyedMAC) VerifyTag(data, tag []byte) bool {
	return len(tag) == TagSize && m.check(data, tag)
}

// Hash is the content hash used throughout MedVault (SHA-256).
func Hash(data []byte) [32]byte { return sha256.Sum256(data) }
