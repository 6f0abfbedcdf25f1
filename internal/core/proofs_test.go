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
		if err := VerifyVersionProof(v.PublicKey(), proof, nil); err != nil {
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
	if err := VerifyVersionProof(v.PublicKey(), forged, nil); !errors.Is(err, ErrTampered) {
		t.Errorf("version-swapped proof accepted: %v", err)
	}
	forged2 := proof
	forged2.CtHash[0] ^= 1
	if err := VerifyVersionProof(v.PublicKey(), forged2, nil); !errors.Is(err, ErrTampered) {
		t.Errorf("hash-swapped proof accepted: %v", err)
	}
	forged3 := proof
	forged3.RecordID = "someone-else"
	if err := VerifyVersionProof(v.PublicKey(), forged3, nil); !errors.Is(err, ErrTampered) {
		t.Errorf("record-swapped proof accepted: %v", err)
	}
	// Wrong key: the head signature fails.
	other, err := vcrypto.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyVersionProof(other.Public(), proof, nil); err == nil {
		t.Error("proof verified under the wrong authority key")
	}
	// Ciphertext binding: wrong bytes fail.
	if err := VerifyVersionProof(v.PublicKey(), proof, []byte("not the ciphertext")); !errors.Is(err, ErrTampered) {
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

func TestProveExtension(t *testing.T) {
	v, _ := newVault(t)
	g := ehr.NewGenerator(42, testEpoch)
	put := func(n int) {
		for i := 0; i < n; {
			r := g.Next()
			if r.Category != ehr.CategoryClinical {
				continue
			}
			if _, err := v.PutCtx(context.Background(), "dr-house", r); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	put(5)
	oldHead := v.Shard(0).Head()
	put(7)
	proof, newHead, err := v.Shard(0).ProveExtension(oldHead)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyExtension(v.PublicKey(), oldHead, newHead, proof); err != nil {
		t.Errorf("honest extension rejected: %v", err)
	}
	// A head from another vault (different key) is rejected.
	other, _ := newVault(t)
	if err := VerifyExtension(other.PublicKey(), oldHead, newHead, proof); err == nil {
		t.Error("extension verified under wrong key")
	}
	// Swapped heads fail consistency.
	if err := VerifyExtension(v.PublicKey(), newHead, newHead, proof); err == nil {
		t.Error("mismatched proof accepted")
	}
}
