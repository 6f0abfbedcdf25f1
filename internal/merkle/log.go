package merkle

import (
	"encoding/binary"
	"fmt"
	"time"

	"medvault/internal/frame"
	"medvault/internal/obs"
	"medvault/internal/vcrypto"
)

// SignedTreeHead (STH) is a commitment to the log at a point in time, signed
// by the vault's authority key. Anyone who remembers an STH can later demand
// a consistency proof showing the log only grew — the mechanism that turns
// "trust the server" into "verify the server", defeating insiders who would
// rewrite history.
type SignedTreeHead struct {
	Size      uint64    // number of leaves committed
	Root      Hash      // Merkle root over those leaves
	Timestamp time.Time // when the head was signed
	Signature []byte    // Ed25519 over the serialized fields
}

// sthBytes serializes the signed fields deterministically.
func sthBytes(size uint64, root Hash, ts time.Time) []byte {
	b := binary.BigEndian.AppendUint64([]byte("medvault/sth/v1\x00"), size)
	return frame.AppendTime(append(b, root[:]...), ts)
}

// Verify checks the STH signature against pub.
func (s SignedTreeHead) Verify(pub vcrypto.PublicKey) error {
	if err := pub.Verify(sthBytes(s.Size, s.Root, s.Timestamp), s.Signature); err != nil {
		return fmt.Errorf("merkle: tree head signature: %w", err)
	}
	return nil
}

// Log couples a Tree with a signer, producing SignedTreeHeads on demand.
// Log is safe for concurrent use (its Tree is).
type Log struct {
	tree   *Tree
	signer *vcrypto.Signer
	now    func() time.Time
}

// NewLog returns a Log signing with signer; now supplies timestamps
// (pass nil for time.Now).
func NewLog(signer *vcrypto.Signer, now func() time.Time) *Log {
	if now == nil {
		now = time.Now
	}
	return &Log{tree: NewTree(), signer: signer, now: now}
}

// LogFromLeafHashes rebuilds a Log from persisted leaf hashes.
func LogFromLeafHashes(signer *vcrypto.Signer, now func() time.Time, leaves []Hash) *Log {
	l := NewLog(signer, now)
	l.tree = TreeFromLeafHashes(leaves)
	return l
}

// metLeaves counts commitment-log appends; with the audit counter it gives
// the integrity-mechanism share of write amplification.
var metLeaves = obs.Default.Counter("medvault_merkle_leaves_total",
	"Leaves committed to the Merkle log.")

// Append commits data and returns its leaf index.
func (l *Log) Append(data []byte) uint64 {
	metLeaves.Inc()
	return l.tree.Append(data)
}

// Size returns the number of committed leaves.
func (l *Log) Size() uint64 { return l.tree.Size() }

// Tree exposes the underlying tree for proof generation.
func (l *Log) Tree() *Tree { return l.tree }

// Head signs and returns the current tree head.
func (l *Log) Head() SignedTreeHead {
	size := l.tree.Size()
	root, _ := l.tree.RootAt(size) // the tree only grows, so size is in range
	ts := l.now().UTC()
	return SignedTreeHead{
		Size:      size,
		Root:      root,
		Timestamp: ts,
		Signature: l.signer.Sign(sthBytes(size, root, ts)),
	}
}

// ProveInclusion returns an inclusion proof for leaf index against the
// current tree size.
func (l *Log) ProveInclusion(index uint64) (Proof, uint64, error) {
	size := l.tree.Size()
	p, err := l.tree.InclusionProof(index, size)
	return p, size, err
}

// ProveConsistency returns a proof that the current log extends the log of
// oldSize leaves.
func (l *Log) ProveConsistency(oldSize uint64) (Proof, uint64, error) {
	size := l.tree.Size()
	p, err := l.tree.ConsistencyProof(oldSize, size)
	return p, size, err
}

// CheckExtends verifies that the current log is an append-only extension of
// a remembered STH: signature, then consistency proof.
func (l *Log) CheckExtends(old SignedTreeHead, pub vcrypto.PublicKey) error {
	if err := old.Verify(pub); err != nil {
		return err
	}
	proof, newSize, err := l.ProveConsistency(old.Size)
	if err != nil {
		return fmt.Errorf("merkle: generating consistency proof: %w", err)
	}
	newRoot, err := l.tree.RootAt(newSize)
	if err != nil {
		return err
	}
	return VerifyConsistency(old.Size, newSize, old.Root, newRoot, proof)
}
