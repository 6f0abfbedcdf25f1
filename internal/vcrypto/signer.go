package vcrypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"

	"medvault/internal/obs"
)

// ErrBadSignature indicates a signature failed verification.
var ErrBadSignature = errors.New("vcrypto: bad signature")

// Ed25519 work, counted exactly: what a put or a reopen costs in public-key
// operations is a budget tests pin, not a profile to read.
var (
	metEd25519Sign = obs.Default.Counter("medvault_crypto_ed25519_total",
		"Ed25519 operations, by op (sign, verify).", obs.L("op", "sign"))
	metEd25519Verify = obs.Default.Counter("medvault_crypto_ed25519_total",
		"Ed25519 operations, by op (sign, verify).", obs.L("op", "verify"))
)

// Signer signs Merkle tree heads, audit checkpoints, migration manifests, and
// backup manifests with Ed25519. A Signer belongs to exactly one authority
// (a vault instance, a migration source, an auditor).
type Signer struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewSigner generates a fresh Ed25519 key pair.
func NewSigner() (*Signer, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("vcrypto: generating signing key: %w", err)
	}
	return &Signer{priv: priv, pub: pub}, nil
}

// SignerFromSeed derives a deterministic Signer from a 32-byte seed.
// Used to rebuild a vault's signing identity from its master secret.
func SignerFromSeed(seed Key) *Signer {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &Signer{priv: priv, pub: priv.Public().(ed25519.PublicKey)}
}

// Sign returns an Ed25519 signature over msg.
func (s *Signer) Sign(msg []byte) []byte {
	metEd25519Sign.Inc()
	return ed25519.Sign(s.priv, msg)
}

// DeriveKey derives a purpose-bound symmetric key from the signer's seed, so
// a MAC that only this signing identity's holder can make needs no secret
// of its own.
func (s *Signer) DeriveKey(label string) Key {
	return DeriveKey(Key(s.priv.Seed()), label)
}

// Public returns the verifying key.
func (s *Signer) Public() PublicKey { return PublicKey(s.pub) }

// PublicKey is an Ed25519 verifying key.
type PublicKey []byte

// Verify reports whether sig is a valid signature over msg by this key.
func (p PublicKey) Verify(msg, sig []byte) error {
	if len(p) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: malformed public key", ErrBadSignature)
	}
	metEd25519Verify.Inc()
	if !ed25519.Verify(ed25519.PublicKey(p), msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// String returns the hex form of the key, convenient for manifests and logs.
func (p PublicKey) String() string { return hex.EncodeToString(p) }

// PublicKeyFromHex parses a key printed by String.
func PublicKeyFromHex(s string) (PublicKey, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("vcrypto: parsing public key: %w", err)
	}
	if len(b) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("vcrypto: public key must be %d bytes, got %d", ed25519.PublicKeySize, len(b))
	}
	return PublicKey(b), nil
}
