package vcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"time"

	"medvault/internal/obs"
)

// Crypto instrumentation: the paper's first overhead question is "what does
// the encryption itself cost?" — these histograms answer it directly.
var (
	metSealSeconds = obs.Default.Histogram("medvault_crypto_seal_seconds",
		"AES-GCM seal (encrypt) latency.", obs.LatencyBuckets)
	metOpenSeconds = obs.Default.Histogram("medvault_crypto_open_seconds",
		"AES-GCM open (decrypt) latency.", obs.LatencyBuckets)
)

// Seal encrypts plaintext with AES-256-GCM under key, binding the associated
// data aad (which is authenticated but not encrypted). The returned slice is
// nonce || ciphertext || tag and is self-contained for Open.
//
// aad should bind the ciphertext to its logical position — MedVault passes
// "recordID/version" — so that a malicious insider cannot swap two valid
// ciphertexts between records without detection.
func Seal(key Key, plaintext, aad []byte) ([]byte, error) {
	defer metSealSeconds.ObserveSince(time.Now())
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize(), gcm.NonceSize()+len(plaintext)+gcm.Overhead())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("vcrypto: generating nonce: %w", err)
	}
	return gcm.Seal(nonce, nonce, plaintext, aad), nil
}

// Open decrypts and authenticates a blob produced by Seal with the same key
// and aad. It returns ErrDecrypt if the ciphertext, tag, or aad has been
// altered, or if the key is wrong.
func Open(key Key, blob, aad []byte) ([]byte, error) {
	defer metOpenSeconds.ObserveSince(time.Now())
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	if len(blob) < gcm.NonceSize()+gcm.Overhead() {
		return nil, fmt.Errorf("%w: ciphertext too short", ErrDecrypt)
	}
	nonce, ct := blob[:gcm.NonceSize()], blob[gcm.NonceSize():]
	pt, err := gcm.Open(nil, nonce, ct, aad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// Overhead is the number of bytes Seal adds to a plaintext
// (12-byte nonce + 16-byte GCM tag).
const Overhead = 12 + 16

func newGCM(key Key) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("vcrypto: cipher init: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("vcrypto: gcm init: %w", err)
	}
	return gcm, nil
}
