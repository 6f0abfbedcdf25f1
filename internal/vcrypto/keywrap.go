package vcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// AES Key Wrap (RFC 3394; NIST SP 800-38F's KW with the default IV). A key
// of n 64-bit blocks wraps to n+1 blocks: a wrapped DEK is 40 bytes where an
// AES-GCM seal of it is 60, and it needs no nonce, because the plaintext is
// a uniformly random key. Unwrap authenticates through the 64-bit IV check.

// kwIV is RFC 3394's default initial value (§2.2.3.1).
const kwIV = 0xA6A6A6A6A6A6A6A6

// kwWrappedLen is the size of a KW-wrapped DEK: the IV block and the key.
const kwWrappedLen = KeySize + 8

// kwWrap wraps key, a multiple of 8 bytes and at least 16, under kek.
func kwWrap(kek cipher.Block, key []byte) []byte {
	n := len(key) / 8
	out := make([]byte, 8+len(key))
	copy(out[8:], key)
	a := uint64(kwIV)
	var b [16]byte
	for j := 0; j < 6; j++ {
		for i := 1; i <= n; i++ {
			r := out[8*i : 8*i+8]
			binary.BigEndian.PutUint64(b[:8], a)
			copy(b[8:], r)
			kek.Encrypt(b[:], b[:])
			a = binary.BigEndian.Uint64(b[:8]) ^ uint64(n*j+i)
			copy(r, b[8:])
		}
	}
	binary.BigEndian.PutUint64(out[:8], a)
	return out
}

// kwUnwrap inverts kwWrap, returning ErrDecrypt if the blob does not unwrap
// to the IV under kek: wrong key, or altered bytes.
func kwUnwrap(kek cipher.Block, blob []byte) ([]byte, error) {
	if len(blob)%8 != 0 || len(blob) < 24 {
		return nil, fmt.Errorf("%w: wrapped key of %d bytes", ErrDecrypt, len(blob))
	}
	n := len(blob)/8 - 1
	key := append([]byte(nil), blob[8:]...)
	a := binary.BigEndian.Uint64(blob[:8])
	var b [16]byte
	for j := 5; j >= 0; j-- {
		for i := n; i >= 1; i-- {
			r := key[8*(i-1) : 8*i]
			binary.BigEndian.PutUint64(b[:8], a^uint64(n*j+i))
			copy(b[8:], r)
			kek.Decrypt(b[:], b[:])
			a = binary.BigEndian.Uint64(b[:8])
			copy(r, b[8:])
		}
	}
	var got, want [8]byte
	binary.BigEndian.PutUint64(got[:], a)
	binary.BigEndian.PutUint64(want[:], kwIV)
	if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
		clear(key)
		return nil, ErrDecrypt
	}
	return key, nil
}

// recordKEK is the AES cipher of id's key-encryption key: HMAC-SHA-256 of
// the ID under the store's wrap key. Each record's DEK wraps under its own
// KEK, so a blob moved to another record's slot fails to unwrap there, as
// an AES-GCM wrap's AAD binds it.
func recordKEK(wrap *KeyedMAC, id string) cipher.Block {
	var kek [KeySize]byte
	wrap.Sum(kek[:0], []byte(id))
	block, err := aes.NewCipher(kek[:])
	clear(kek[:])
	if err != nil {
		panic(err) // unreachable: a 32-byte key is always a valid AES-256 key
	}
	return block
}
