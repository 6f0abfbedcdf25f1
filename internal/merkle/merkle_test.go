package merkle

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMTH computes the RFC 6962 Merkle tree hash over leaf data by direct
// recursion, as an independent oracle for the incremental implementation.
func naiveMTH(leaves [][]byte) Hash {
	if len(leaves) == 0 {
		return sha256.Sum256(nil)
	}
	if len(leaves) == 1 {
		return LeafHash(leaves[0])
	}
	k := 1
	for k*2 < len(leaves) {
		k *= 2
	}
	return nodeHash(naiveMTH(leaves[:k]), naiveMTH(leaves[k:]))
}

func leafData(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-version-%d", i))
	}
	return out
}

func TestRootMatchesNaiveOracle(t *testing.T) {
	for n := 0; n <= 65; n++ {
		leaves := leafData(n)
		tree := NewTree()
		for _, l := range leaves {
			tree.Append(l)
		}
		if got, want := tree.Root(), naiveMTH(leaves); got != want {
			t.Fatalf("n=%d: incremental root != naive root", n)
		}
	}
}

func TestRFC6962TestVectors(t *testing.T) {
	// Empty tree root from RFC 6962 / CT: SHA-256 of the empty string.
	empty := NewTree().Root()
	wantEmpty := "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	if got := fmt.Sprintf("%x", empty[:]); got != wantEmpty {
		t.Errorf("empty root = %s, want %s", got, wantEmpty)
	}
	// Single empty leaf: MTH({""}) = SHA-256(0x00).
	tree := NewTree()
	tree.Append(nil)
	want1 := "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"
	root := tree.Root()
	if got := fmt.Sprintf("%x", root[:]); got != want1 {
		t.Errorf("single-leaf root = %s, want %s", got, want1)
	}
}

func TestRootAtHistorical(t *testing.T) {
	leaves := leafData(37)
	tree := NewTree()
	historical := make([]Hash, 0, len(leaves)+1)
	historical = append(historical, tree.Root())
	for _, l := range leaves {
		tree.Append(l)
		historical = append(historical, tree.Root())
	}
	for size := 0; size <= len(leaves); size++ {
		got, err := tree.RootAt(uint64(size))
		if err != nil {
			t.Fatalf("RootAt(%d): %v", size, err)
		}
		if got != historical[size] {
			t.Errorf("RootAt(%d) != root observed at that size", size)
		}
	}
	if _, err := tree.RootAt(uint64(len(leaves)) + 1); !errors.Is(err, ErrIndexRange) {
		t.Errorf("RootAt beyond size: %v", err)
	}
}

func TestInclusionProofAllPositions(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 100} {
		leaves := leafData(n)
		tree := NewTree()
		for _, l := range leaves {
			tree.Append(l)
		}
		root := tree.Root()
		for i := 0; i < n; i++ {
			proof, err := tree.InclusionProof(uint64(i), uint64(n))
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if err := VerifyInclusion(leaves[i], uint64(i), uint64(n), proof, root); err != nil {
				t.Fatalf("n=%d i=%d: valid proof rejected: %v", n, i, err)
			}
			// Wrong leaf must fail.
			if err := VerifyInclusion([]byte("forged"), uint64(i), uint64(n), proof, root); err == nil {
				t.Fatalf("n=%d i=%d: forged leaf accepted", n, i)
			}
			// Wrong index must fail.
			if n > 1 {
				j := (i + 1) % n
				if err := VerifyInclusion(leaves[i], uint64(j), uint64(n), proof, root); err == nil {
					t.Fatalf("n=%d i=%d: proof accepted at wrong index %d", n, i, j)
				}
			}
		}
	}
}

func TestInclusionProofHistoricalSize(t *testing.T) {
	leaves := leafData(50)
	tree := NewTree()
	for _, l := range leaves {
		tree.Append(l)
	}
	for size := 1; size <= 50; size += 7 {
		oldRoot, err := tree.RootAt(uint64(size))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < size; i += 3 {
			proof, err := tree.InclusionProof(uint64(i), uint64(size))
			if err != nil {
				t.Fatalf("size=%d i=%d: %v", size, i, err)
			}
			if err := VerifyInclusion(leaves[i], uint64(i), uint64(size), proof, oldRoot); err != nil {
				t.Fatalf("size=%d i=%d: %v", size, i, err)
			}
		}
	}
}

func TestInclusionProofBounds(t *testing.T) {
	tree := NewTree()
	tree.Append([]byte("a"))
	if _, err := tree.InclusionProof(1, 1); !errors.Is(err, ErrIndexRange) {
		t.Errorf("index==size: %v", err)
	}
	if _, err := tree.InclusionProof(0, 2); !errors.Is(err, ErrIndexRange) {
		t.Errorf("size>tree: %v", err)
	}
}

func TestInclusionProofTamperedPath(t *testing.T) {
	leaves := leafData(20)
	tree := NewTree()
	for _, l := range leaves {
		tree.Append(l)
	}
	root := tree.Root()
	proof, err := tree.InclusionProof(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range proof.Hashes {
		mutated := Proof{Hashes: append([]Hash(nil), proof.Hashes...)}
		mutated.Hashes[i][0] ^= 1
		if err := VerifyInclusion(leaves[5], 5, 20, mutated, root); err == nil {
			t.Errorf("tampered proof element %d accepted", i)
		}
	}
	// Truncated and extended proofs must fail.
	short := Proof{Hashes: proof.Hashes[:len(proof.Hashes)-1]}
	if err := VerifyInclusion(leaves[5], 5, 20, short, root); err == nil {
		t.Error("truncated proof accepted")
	}
	long := Proof{Hashes: append(append([]Hash(nil), proof.Hashes...), Hash{})}
	if err := VerifyInclusion(leaves[5], 5, 20, long, root); err == nil {
		t.Error("extended proof accepted")
	}
}

func TestConsistencyProofAllPairs(t *testing.T) {
	const maxN = 40
	leaves := leafData(maxN)
	tree := NewTree()
	roots := make([]Hash, maxN+1)
	roots[0] = tree.Root()
	for i, l := range leaves {
		tree.Append(l)
		roots[i+1] = tree.Root()
	}
	for oldSize := 0; oldSize <= maxN; oldSize++ {
		for newSize := oldSize; newSize <= maxN; newSize++ {
			proof, err := tree.ConsistencyProof(uint64(oldSize), uint64(newSize))
			if err != nil {
				t.Fatalf("(%d,%d): %v", oldSize, newSize, err)
			}
			// The prover only materializes proofs against its current size,
			// so verify against historical roots computed via RootAt.
			if err := VerifyConsistency(uint64(oldSize), uint64(newSize), roots[oldSize], roots[newSize], proof); err != nil {
				t.Fatalf("(%d,%d): valid consistency proof rejected: %v", oldSize, newSize, err)
			}
		}
	}
}

func TestConsistencyRejectsRewrittenHistory(t *testing.T) {
	// The honest verifier remembers the root over the first 10 entries. The
	// attacker's log rewrote entry 5 — inside that committed prefix. No
	// consistency proof from the attacker's tree can link the honest old
	// root to the attacker's new root.
	honest := NewTree()
	attacker := NewTree()
	for i := 0; i < 10; i++ {
		honest.Append([]byte(fmt.Sprintf("entry-%d", i)))
		entry := fmt.Sprintf("entry-%d", i)
		if i == 5 {
			entry = "entry-5-REWRITTEN"
		}
		attacker.Append([]byte(entry))
	}
	oldRoot := honest.Root()
	for i := 10; i < 20; i++ {
		d := []byte(fmt.Sprintf("entry-%d", i))
		honest.Append(d)
		attacker.Append(d)
	}
	proof, err := attacker.ConsistencyProof(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConsistency(10, 20, oldRoot, attacker.Root(), proof); !errors.Is(err, ErrProofInvalid) {
		t.Errorf("rewritten history passed consistency: %v", err)
	}
}

func TestConsistencyEdgeCases(t *testing.T) {
	tree := NewTree()
	for _, l := range leafData(8) {
		tree.Append(l)
	}
	root := tree.Root()

	// Equal sizes: empty proof, equal roots.
	p, err := tree.ConsistencyProof(8, 8)
	if err != nil || len(p.Hashes) != 0 {
		t.Fatalf("equal-size proof: %v %v", p, err)
	}
	if err := VerifyConsistency(8, 8, root, root, p); err != nil {
		t.Errorf("equal roots rejected: %v", err)
	}
	var other Hash
	if err := VerifyConsistency(8, 8, root, other, p); err == nil {
		t.Error("equal sizes with different roots accepted")
	}

	// Old size 0: vacuously consistent.
	p, err = tree.ConsistencyProof(0, 8)
	if err != nil || len(p.Hashes) != 0 {
		t.Fatalf("zero-size proof: %v %v", p, err)
	}
	if err := VerifyConsistency(0, 8, Hash{}, root, p); err != nil {
		t.Errorf("empty-old consistency rejected: %v", err)
	}

	// Old > new is an error in both prover and verifier.
	if _, err := tree.ConsistencyProof(9, 8); !errors.Is(err, ErrIndexRange) {
		t.Errorf("prover old>new: %v", err)
	}
	if err := VerifyConsistency(9, 8, root, root, Proof{}); !errors.Is(err, ErrIndexRange) {
		t.Errorf("verifier old>new: %v", err)
	}
}

func TestTreeProperty(t *testing.T) {
	// Property: for random leaf sets, incremental root equals naive root,
	// and a random inclusion proof verifies.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		leaves := make([][]byte, n)
		for i := range leaves {
			leaves[i] = make([]byte, rng.Intn(64))
			rng.Read(leaves[i])
		}
		tree := NewTree()
		for _, l := range leaves {
			tree.Append(l)
		}
		if tree.Root() != naiveMTH(leaves) {
			return false
		}
		i := uint64(rng.Intn(n))
		proof, err := tree.InclusionProof(i, uint64(n))
		if err != nil {
			return false
		}
		return VerifyInclusion(leaves[i], i, uint64(n), proof, tree.Root()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLeafHashesRoundTrip(t *testing.T) {
	tree := NewTree()
	for _, l := range leafData(23) {
		tree.Append(l)
	}
	rebuilt := TreeFromLeafHashes(tree.LeafHashes())
	if rebuilt.Root() != tree.Root() {
		t.Error("rebuilt tree root differs")
	}
	if rebuilt.Size() != tree.Size() {
		t.Error("rebuilt tree size differs")
	}
}

func TestEncodeDecodeHashes(t *testing.T) {
	tree := NewTree()
	for _, l := range leafData(9) {
		tree.Append(l)
	}
	hs := tree.LeafHashes()
	enc := EncodeHashes(hs)
	dec, err := DecodeHashes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(hs) {
		t.Fatalf("decoded %d hashes, want %d", len(dec), len(hs))
	}
	for i := range hs {
		if dec[i] != hs[i] {
			t.Fatalf("hash %d differs", i)
		}
	}
	if _, err := DecodeHashes(enc[:len(enc)-1]); err == nil {
		t.Error("truncated encoding accepted")
	}
	if _, err := DecodeHashes([]byte{0, 0}); err == nil {
		t.Error("short encoding accepted")
	}
}

func TestLeafHashAt(t *testing.T) {
	tree := NewTree()
	tree.Append([]byte("x"))
	got, err := tree.LeafHashAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != LeafHash([]byte("x")) {
		t.Error("LeafHashAt mismatch")
	}
	if _, err := tree.LeafHashAt(1); !errors.Is(err, ErrIndexRange) {
		t.Errorf("out of range: %v", err)
	}
}

func TestLeafVsNodeDomainSeparation(t *testing.T) {
	// A leaf whose data happens to be two concatenated hashes must not
	// collide with the interior node over those hashes.
	a, b := LeafHash([]byte("a")), LeafHash([]byte("b"))
	spliced := append(append([]byte{}, a[:]...), b[:]...)
	if LeafHash(spliced) == nodeHash(a, b) {
		t.Error("leaf/node domain separation broken")
	}
}
