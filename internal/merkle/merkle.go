// Package merkle implements an append-only Merkle commitment log in the style
// of Certificate Transparency (RFC 6962): leaf and interior hashes are domain
// separated, inclusion proofs show a specific entry is committed by a tree
// head, and consistency proofs show one tree head is an append-only extension
// of an earlier one.
//
// MedVault appends the content hash of every record version to this log and
// periodically signs the tree head. A malicious insider with direct disk
// access can rewrite a record's bytes, but cannot recompute the committed
// root without the signing key — so verification against any remembered
// signed tree head exposes the tampering. This is the integrity mechanism the
// paper requires "even in the case of malicious insiders" (§3 Integrity).
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// HashSize is the byte length of all tree hashes (SHA-256).
const HashSize = sha256.Size

// Hash is a node or root hash of the tree.
type Hash [HashSize]byte

// Domain-separation prefixes per RFC 6962 §2.1: a leaf hash can never equal
// an interior hash, which blocks second-preimage splicing attacks.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// Errors returned by the package.
var (
	// ErrProofInvalid indicates a proof failed verification.
	ErrProofInvalid = errors.New("merkle: proof invalid")
	// ErrIndexRange indicates an index or size outside the tree.
	ErrIndexRange = errors.New("merkle: index out of range")
	// ErrEmptyTree indicates an operation that needs at least one leaf.
	ErrEmptyTree = errors.New("merkle: empty tree")
)

// LeafHash computes the domain-separated hash of a leaf datum.
func LeafHash(data []byte) Hash {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(data)
	var out Hash
	h.Sum(out[:0])
	return out
}

// nodeHash combines two child hashes into their parent.
func nodeHash(left, right Hash) Hash {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(left[:])
	h.Write(right[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// Tree is an in-memory append-only Merkle tree over leaf hashes.
// It retains all leaf hashes (not leaf data) and caches interior levels for
// O(log n) appends and proof generation. Tree is safe for concurrent use.
type Tree struct {
	mu sync.RWMutex
	// levels[0] is the leaf-hash layer; levels[k] holds the hashes of
	// complete subtrees of 2^k leaves. Incomplete right spines are computed
	// on demand, so appends never rebuild the whole tree.
	levels [][]Hash
}

// NewTree returns an empty tree.
func NewTree() *Tree { return &Tree{levels: [][]Hash{{}}} }

// Size returns the number of leaves.
func (t *Tree) Size() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return uint64(len(t.levels[0]))
}

// Append adds a leaf datum and returns its index.
func (t *Tree) Append(data []byte) uint64 {
	return t.AppendLeafHash(LeafHash(data))
}

// AppendLeafHash adds a precomputed leaf hash and returns its index.
func (t *Tree) AppendLeafHash(lh Hash) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := uint64(len(t.levels[0]))
	t.levels[0] = append(t.levels[0], lh)
	// Propagate completed pairs upward.
	for lvl := 0; ; lvl++ {
		n := len(t.levels[lvl])
		if n%2 != 0 {
			break
		}
		parent := nodeHash(t.levels[lvl][n-2], t.levels[lvl][n-1])
		if lvl+1 == len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		t.levels[lvl+1] = append(t.levels[lvl+1], parent)
	}
	return idx
}

// Root returns the root hash of the current tree. The root of an empty tree
// is the hash of the empty string, matching RFC 6962.
func (t *Tree) Root() Hash {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rootAt(uint64(len(t.levels[0])))
}

// RootAt returns the root hash of the tree as it was when it had size leaves.
func (t *Tree) RootAt(size uint64) (Hash, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if size > uint64(len(t.levels[0])) {
		return Hash{}, fmt.Errorf("%w: size %d > tree size %d", ErrIndexRange, size, len(t.levels[0]))
	}
	return t.rootAt(size), nil
}

// rootAt computes the root over leaves [0, size). Caller holds at least RLock.
func (t *Tree) rootAt(size uint64) Hash {
	if size == 0 {
		return sha256.Sum256(nil)
	}
	return t.subtreeHash(0, size)
}

// subtreeHash computes the hash of leaves [lo, hi) per RFC 6962's MTH:
// split at the largest power of two strictly less than the range length.
// Complete power-of-two-aligned subtrees are served from the level cache,
// which makes proof generation O(log^2 n) instead of O(n).
func (t *Tree) subtreeHash(lo, hi uint64) Hash {
	n := hi - lo
	if n&(n-1) == 0 && lo%n == 0 {
		lvl := log2(n)
		if lvl < len(t.levels) && lo>>lvl < uint64(len(t.levels[lvl])) {
			return t.levels[lvl][lo>>lvl]
		}
	}
	if n == 1 {
		return t.levels[0][lo]
	}
	k := largestPowerOfTwoBelow(n)
	return nodeHash(t.subtreeHash(lo, lo+k), t.subtreeHash(lo+k, hi))
}

// Proof is a Merkle audit path: sibling hashes from a leaf (or old root) to
// the root, ordered bottom-up.
type Proof struct {
	Hashes []Hash
}

// InclusionProof returns the audit path proving leaf index is included in the
// tree of the given size.
func (t *Tree) InclusionProof(index, size uint64) (Proof, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if size > uint64(len(t.levels[0])) {
		return Proof{}, fmt.Errorf("%w: size %d > tree size %d", ErrIndexRange, size, len(t.levels[0]))
	}
	if index >= size {
		return Proof{}, fmt.Errorf("%w: index %d >= size %d", ErrIndexRange, index, size)
	}
	return Proof{Hashes: t.path(index, 0, size)}, nil
}

// path computes the audit path for leaf index within leaves [lo, hi),
// following RFC 6962 §2.1.1.
func (t *Tree) path(index, lo, hi uint64) []Hash {
	n := hi - lo
	if n == 1 {
		return nil
	}
	k := largestPowerOfTwoBelow(n)
	if index-lo < k {
		p := t.path(index, lo, lo+k)
		return append(p, t.subtreeHash(lo+k, hi))
	}
	p := t.path(index, lo+k, hi)
	return append(p, t.subtreeHash(lo, lo+k))
}

// VerifyInclusion checks that leafData is the leaf at index in the tree of
// the given size with the given root.
func VerifyInclusion(leafData []byte, index, size uint64, proof Proof, root Hash) error {
	return VerifyInclusionHash(LeafHash(leafData), index, size, proof, root)
}

// VerifyInclusionHash is VerifyInclusion for a precomputed leaf hash.
func VerifyInclusionHash(leaf Hash, index, size uint64, proof Proof, root Hash) error {
	if index >= size {
		return fmt.Errorf("%w: index %d >= size %d", ErrIndexRange, index, size)
	}
	// Walk from the leaf to the root. At each level, absorb the sibling from
	// the proof — unless the node is the last, left-positioned node at its
	// level, which has no sibling.
	h := leaf
	node, lastNode := index, size-1
	i := 0
	for lastNode > 0 {
		switch {
		case node%2 == 1: // right child: sibling is on the left
			if i == len(proof.Hashes) {
				return fmt.Errorf("%w: proof too short", ErrProofInvalid)
			}
			h = nodeHash(proof.Hashes[i], h)
			i++
		case node < lastNode: // left child with a right sibling
			if i == len(proof.Hashes) {
				return fmt.Errorf("%w: proof too short", ErrProofInvalid)
			}
			h = nodeHash(h, proof.Hashes[i])
			i++
		}
		node >>= 1
		lastNode >>= 1
	}
	if i != len(proof.Hashes) {
		return fmt.Errorf("%w: proof too long", ErrProofInvalid)
	}
	if h != root {
		return fmt.Errorf("%w: computed root mismatch", ErrProofInvalid)
	}
	return nil
}

// ConsistencyProof returns a proof that the tree of size newSize is an
// append-only extension of the tree of size oldSize.
func (t *Tree) ConsistencyProof(oldSize, newSize uint64) (Proof, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if newSize > uint64(len(t.levels[0])) {
		return Proof{}, fmt.Errorf("%w: size %d > tree size %d", ErrIndexRange, newSize, len(t.levels[0]))
	}
	if oldSize > newSize {
		return Proof{}, fmt.Errorf("%w: old size %d > new size %d", ErrIndexRange, oldSize, newSize)
	}
	if oldSize == 0 {
		return Proof{}, nil // anything is consistent with the empty tree
	}
	return Proof{Hashes: t.consistency(oldSize, 0, newSize, true)}, nil
}

// consistency follows RFC 6962 §2.1.2's PROOF(m, D[n]) recursion. complete
// records whether the left endpoint subtree equals the original old tree.
func (t *Tree) consistency(m, lo, hi uint64, complete bool) []Hash {
	n := hi - lo
	if m == n {
		if complete {
			return nil
		}
		return []Hash{t.subtreeHash(lo, hi)}
	}
	k := largestPowerOfTwoBelow(n)
	if m <= k {
		p := t.consistency(m, lo, lo+k, complete)
		return append(p, t.subtreeHash(lo+k, hi))
	}
	p := t.consistency(m-k, lo+k, hi, false)
	return append(p, t.subtreeHash(lo, lo+k))
}

// VerifyConsistency checks that newRoot (over newSize leaves) extends
// oldRoot (over oldSize leaves) append-only.
func VerifyConsistency(oldSize, newSize uint64, oldRoot, newRoot Hash, proof Proof) error {
	switch {
	case oldSize > newSize:
		return fmt.Errorf("%w: old size %d > new size %d", ErrIndexRange, oldSize, newSize)
	case oldSize == newSize:
		if oldRoot != newRoot {
			return fmt.Errorf("%w: equal sizes, different roots", ErrProofInvalid)
		}
		if len(proof.Hashes) != 0 {
			return fmt.Errorf("%w: nonempty proof for equal sizes", ErrProofInvalid)
		}
		return nil
	case oldSize == 0:
		if len(proof.Hashes) != 0 {
			return fmt.Errorf("%w: nonempty proof for empty old tree", ErrProofInvalid)
		}
		return nil // empty tree is a prefix of everything
	}

	// Iterative verification: reconstruct both the old root (from the
	// right-border nodes of the old tree present in the proof) and the new
	// root (additionally folding in the nodes that cover the appended
	// region), then compare with the claimed roots.
	node, lastNode := oldSize-1, newSize-1
	for node%2 == 1 { // ascend past levels where the old border is a right child
		node >>= 1
		lastNode >>= 1
	}
	hashes := proof.Hashes
	i := 0
	var oldCalc, newCalc Hash
	if node > 0 {
		if i == len(hashes) {
			return fmt.Errorf("%w: proof too short", ErrProofInvalid)
		}
		oldCalc, newCalc = hashes[i], hashes[i]
		i++
	} else {
		// The old tree is a complete left subtree of the new one; its root
		// is an implicit first proof element.
		oldCalc, newCalc = oldRoot, oldRoot
	}
	for node > 0 {
		switch {
		case node%2 == 1:
			if i == len(hashes) {
				return fmt.Errorf("%w: proof too short", ErrProofInvalid)
			}
			oldCalc = nodeHash(hashes[i], oldCalc)
			newCalc = nodeHash(hashes[i], newCalc)
			i++
		case node < lastNode:
			if i == len(hashes) {
				return fmt.Errorf("%w: proof too short", ErrProofInvalid)
			}
			newCalc = nodeHash(newCalc, hashes[i])
			i++
		}
		node >>= 1
		lastNode >>= 1
	}
	for lastNode > 0 {
		if i == len(hashes) {
			return fmt.Errorf("%w: proof too short", ErrProofInvalid)
		}
		newCalc = nodeHash(newCalc, hashes[i])
		i++
		lastNode >>= 1
	}
	if i != len(hashes) {
		return fmt.Errorf("%w: proof too long", ErrProofInvalid)
	}
	if oldCalc != oldRoot {
		return fmt.Errorf("%w: old root mismatch", ErrProofInvalid)
	}
	if newCalc != newRoot {
		return fmt.Errorf("%w: new root mismatch", ErrProofInvalid)
	}
	return nil
}

// LeafHashAt returns the stored leaf hash at index.
func (t *Tree) LeafHashAt(index uint64) (Hash, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if index >= uint64(len(t.levels[0])) {
		return Hash{}, fmt.Errorf("%w: index %d >= size %d", ErrIndexRange, index, len(t.levels[0]))
	}
	return t.levels[0][index], nil
}

// LeafHashes returns a copy of all leaf hashes, for persistence.
func (t *Tree) LeafHashes() []Hash {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Hash, len(t.levels[0]))
	copy(out, t.levels[0])
	return out
}

// TreeFromLeafHashes rebuilds a tree from persisted leaf hashes.
func TreeFromLeafHashes(leaves []Hash) *Tree {
	t := NewTree()
	for _, lh := range leaves {
		t.AppendLeafHash(lh)
	}
	return t
}

// EncodeHashes serializes hashes for storage: u32 count then raw hashes.
func EncodeHashes(hs []Hash) []byte {
	out := make([]byte, 4+len(hs)*HashSize)
	binary.BigEndian.PutUint32(out, uint32(len(hs)))
	for i, h := range hs {
		copy(out[4+i*HashSize:], h[:])
	}
	return out
}

// DecodeHashes parses the output of EncodeHashes.
func DecodeHashes(b []byte) ([]Hash, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("merkle: truncated hash list")
	}
	n := binary.BigEndian.Uint32(b)
	if uint64(len(b)-4) != uint64(n)*HashSize {
		return nil, fmt.Errorf("merkle: hash list length mismatch: header %d, body %d bytes", n, len(b)-4)
	}
	out := make([]Hash, n)
	for i := range out {
		copy(out[i][:], b[4+i*HashSize:])
	}
	return out, nil
}

// largestPowerOfTwoBelow returns the largest power of two strictly less
// than n. n must be > 1.
func largestPowerOfTwoBelow(n uint64) uint64 {
	k := uint64(1)
	for k*2 < n {
		k *= 2
	}
	return k
}

func log2(k uint64) int {
	l := 0
	for k > 1 {
		k >>= 1
		l++
	}
	return l
}
