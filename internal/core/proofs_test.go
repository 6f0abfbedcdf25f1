package core

import (
	"context"
	"errors"
	"testing"

	"medvault/internal/ehr"
	"medvault/internal/vcrypto"
)

func TestProveVersionVerifiesExternally(t *testing.T) {
	v, _ := newVault(t)
	g := ehr.NewGenerator(40, testEpoch)
	var rec ehr.Record
	for rec = g.Next(); rec.Category != ehr.CategoryClinical; rec = g.Next() {
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	if _, err := v.CorrectCtx(context.Background(), "dr-house", g.Correction(rec)); err != nil {
		t.Fatal(err)
	}
	// More records after, so the proof is a real path, not a root.
	for i := 0; i < 9; i++ {
		r := g.Next()
		if r.Category != ehr.CategoryClinical {
			continue
		}
		if _, err := v.PutCtx(context.Background(), "dr-house", r); err != nil {
			t.Fatal(err)
		}
	}

	for _, n := range []uint64{1, 2} {
		proof, err := v.ProveVersionCtx(context.Background(), "dr-house", rec.ID, n)
		if err != nil {
			t.Fatalf("ProveVersion v%d: %v", n, err)
		}
		// The external auditor holds only the vault's public key.
		if err := VerifyVersionProof(v.PublicKey(), proof, nil, nil); err != nil {
			t.Errorf("v%d proof rejected: %v", n, err)
		}
	}

	// Forgeries fail.
	proof, err := v.ProveVersionCtx(context.Background(), "dr-house", rec.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	forged := proof
	forged.Version = 1 // claim the correction is the original
	if err := VerifyVersionProof(v.PublicKey(), forged, nil, nil); !errors.Is(err, ErrTampered) {
		t.Errorf("version-swapped proof accepted: %v", err)
	}
	forged2 := proof
	forged2.CtHash[0] ^= 1
	if err := VerifyVersionProof(v.PublicKey(), forged2, nil, nil); !errors.Is(err, ErrTampered) {
		t.Errorf("hash-swapped proof accepted: %v", err)
	}
	forged3 := proof
	forged3.RecordID = "someone-else"
	if err := VerifyVersionProof(v.PublicKey(), forged3, nil, nil); !errors.Is(err, ErrTampered) {
		t.Errorf("record-swapped proof accepted: %v", err)
	}
	// Wrong key: the head signature fails.
	other, err := vcrypto.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyVersionProof(other.Public(), proof, nil, nil); err == nil {
		t.Error("proof verified under the wrong authority key")
	}
	// Ciphertext binding: wrong bytes fail.
	if err := VerifyVersionProof(v.PublicKey(), proof, []byte("not the ciphertext"), nil); !errors.Is(err, ErrTampered) {
		t.Errorf("wrong ciphertext accepted: %v", err)
	}
}

func TestProveVersionAuthz(t *testing.T) {
	v, _ := newVault(t)
	rec := clinicalRecord(t, 41)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ProveVersionCtx(context.Background(), "clerk-bob", rec.ID, 1); !errors.Is(err, ErrDenied) {
		t.Errorf("clerk obtained a clinical proof: %v", err)
	}
	if _, err := v.ProveVersionCtx(context.Background(), "dr-house", rec.ID, 5); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing version: %v", err)
	}
	if _, err := v.ProveVersionCtx(context.Background(), "dr-house", "ghost", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing record: %v", err)
	}
}

// TestProveExtension: a proof asked for with the size of a head the auditor
// remembers carries the consistency path from it to the proof's own signed
// head, and the one verifier checks both. A remembered head from another
// vault, one with a flipped root byte, or a size the proof was not asked for
// fails; a size past the head is invalid.
func TestProveExtension(t *testing.T) {
	v, _ := newVault(t)
	g := ehr.NewGenerator(42, testEpoch)
	var first ehr.Record
	put := func(n int) {
		for i := 0; i < n; {
			r := g.Next()
			if r.Category != ehr.CategoryClinical {
				continue
			}
			if _, err := v.PutCtx(context.Background(), "dr-house", r); err != nil {
				t.Fatal(err)
			}
			if first.ID == "" {
				first = r
			}
			i++
		}
	}
	ctx := context.Background()
	put(5)
	old, err := v.ProveVersionCtx(ctx, "dr-house", first.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	oldHead := old.Head
	put(7)
	proof, err := v.ProveVersionSinceCtx(ctx, "dr-house", first.ID, 1, oldHead.Size)
	if err != nil {
		t.Fatal(err)
	}
	if proof.Head.Size != oldHead.Size+7 || len(proof.Consistency.Hashes) == 0 {
		t.Fatalf("proof since %d: head %d, %d consistency hashes", oldHead.Size, proof.Head.Size, len(proof.Consistency.Hashes))
	}
	if err := VerifyVersionProof(v.PublicKey(), proof, nil, &oldHead); err != nil {
		t.Errorf("honest extension rejected: %v", err)
	}
	// A head from another vault (different key) is rejected.
	other, _ := newVault(t)
	if err := VerifyVersionProof(other.PublicKey(), proof, nil, &oldHead); err == nil {
		t.Error("extension verified under wrong key")
	}
	flipped := oldHead
	flipped.Root[0] ^= 1
	if err := VerifyVersionProof(v.PublicKey(), proof, nil, &flipped); !errors.Is(err, ErrTampered) {
		t.Errorf("a rewritten remembered root: %v, want ErrTampered", err)
	}
	// Swapped heads fail: the proof was not asked for with the new size.
	if err := VerifyVersionProof(v.PublicKey(), proof, nil, &proof.Head); err == nil {
		t.Error("mismatched proof accepted")
	}
	if _, err := v.ProveVersionSinceCtx(ctx, "dr-house", first.ID, 1, proof.Head.Size+1); !errors.Is(err, ErrBadSince) {
		t.Errorf("since past the head: %v, want ErrBadSince", err)
	}
}
