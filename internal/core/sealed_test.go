package core

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/vcrypto"
)

// sealedPlaintext opens version number of record id on shard v as its
// ciphertext sits on the medium, returning the ciphertext and the plaintext.
func sealedPlaintext(t *testing.T, v *Vault, id string, number uint64) (ct, pt []byte) {
	t.Helper()
	st, err := v.stateFor(id)
	if err != nil {
		t.Fatal(err)
	}
	ct, _, err = v.ciphertext(v.versions(st)[number-1].Ref)
	if err != nil {
		t.Fatal(err)
	}
	dek, err := v.keys.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if pt, err = vcrypto.Open(dek, ct, sealAAD(id, number)); err != nil {
		t.Fatalf("opening %s v%d: %v", id, number, err)
	}
	return ct, pt
}

// TestSealedRecordBindsIDThroughAAD: a version is sealed in the sealed
// layout, which does not hold its record's ID; the AAD binds the ciphertext
// to that ID, so the same ciphertext under another record's ID fails to open
// even with the right key.
func TestSealedRecordBindsIDThroughAAD(t *testing.T) {
	v, _ := newVault(t)
	rec := clinicalRecord(t, 7)
	rec.ID = "sealed-id-7"
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	shard := v.Shard(0)
	ct, pt := sealedPlaintext(t, shard, rec.ID, 1)
	if pt[0] != ehr.SealedTag || bytes.Contains(pt, []byte(rec.ID)) {
		t.Fatalf("sealed plaintext %x: want the sealed tag first and no ID", pt)
	}
	if !bytes.Equal(pt, ehr.EncodeSealed(rec)) {
		t.Errorf("sealed plaintext is not ehr.EncodeSealed of the record")
	}
	dek, err := shard.keys.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vcrypto.Open(dek, ct, sealAAD("sealed-id-8", 1)); err == nil {
		t.Fatal("a ciphertext moved under another record's ID opened")
	}
	got, _, err := v.GetCtx(context.Background(), "dr-house", rec.ID)
	if err != nil || got.ID != rec.ID || !bytes.Equal(ehr.Encode(got), ehr.Encode(rec)) {
		t.Fatalf("Get = %+v, %v; want %+v", got, err, rec)
	}
}

// TestOpenVersionLegacyIDMustMatch: an MVR1 plaintext, as an older binary
// sealed it, carries its own ID, which must be the one it opened under.
func TestOpenVersionLegacyIDMustMatch(t *testing.T) {
	v, _ := newVault(t)
	rec := clinicalRecord(t, 7)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	shard := v.Shard(0)
	dek, err := shard.keys.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	st, err := shard.stateFor(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	ver := shard.versions(st)[0]
	for _, tc := range []struct {
		id   string
		want error
	}{{rec.ID, nil}, {"someone-else", ErrTampered}} {
		named := rec
		named.ID = tc.id
		ct, err := vcrypto.Seal(dek, ehr.Encode(named), sealAAD(rec.ID, 1))
		if err != nil {
			t.Fatal(err)
		}
		got, err := shard.openVersion(context.Background(), rec.ID, st, ver, ct)
		if !errors.Is(err, tc.want) || (err == nil && got.ID != rec.ID) {
			t.Errorf("MVR1 plaintext naming %q opened as %s: %+v, %v; want %v", tc.id, rec.ID, got, err, tc.want)
		}
	}
}

// TestParentRecordCorrectedInSealedLayout: a record the parent fixture
// sealed as MVR1 is corrected by this binary, whose version 2 is sealed in
// the sealed layout. Both versions read back, before and after a reopen,
// and the export's canonical bytes of version 1 are the ones it had before
// the correction.
func TestParentRecordCorrectedInSealedLayout(t *testing.T) {
	var seed [32]byte
	copy(seed[:], "medvault-fixture-master-seed-32b")
	master, err := vcrypto.KeyFromBytes(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent-single-vault"), dir)
	cfg := Config{Name: "fixture", Master: master, Clock: clock.NewVirtual(parentFixture.now), Dir: dir, Shards: 1}
	v, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerStaff(t, v)
	const id = "fx-c"
	before, err := v.Export("arch-lee", id)
	if err != nil {
		t.Fatal(err)
	}
	if _, pt := sealedPlaintext(t, v.Shard(0), id, 1); !bytes.HasPrefix(pt, []byte("MVR1")) {
		t.Fatalf("fixture %s v1 is sealed as %x, want MVR1", id, pt[:4])
	}
	rec, _, err := v.GetCtx(context.Background(), "dr-house", id)
	if err != nil {
		t.Fatal(err)
	}
	rec.Body = "fixture body fx-c, corrected in the sealed layout"
	if _, err := v.CorrectCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	if _, pt := sealedPlaintext(t, v.Shard(0), id, 2); pt[0] != ehr.SealedTag {
		t.Fatalf("%s v2 is sealed as %x, want the sealed layout", id, pt[0])
	}
	bodies := []string{parentFixture.bodies[id][0], rec.Body}
	check := func(what string, v *Cluster) {
		t.Helper()
		for i, want := range bodies {
			got, _, err := v.GetVersionCtx(context.Background(), "dr-house", id, uint64(i+1))
			if err != nil || got.ID != id || got.Body != want {
				t.Errorf("%s: %s v%d = %+v, %v; want body %q", what, id, i+1, got, err, want)
			}
		}
		after, err := v.Export("arch-lee", id)
		if err != nil {
			t.Fatal(err)
		}
		if len(after.Versions) != 2 ||
			!bytes.Equal(CanonicalRecordBytes(after.Versions[0].Record), CanonicalRecordBytes(before.Versions[0].Record)) ||
			after.Versions[0].PlainHash != before.Versions[0].PlainHash {
			t.Errorf("%s: the export's version 1 changed", what)
		}
		if len(after.Versions) == 2 && !bytes.Equal(CanonicalRecordBytes(after.Versions[1].Record), ehr.Encode(rec)) {
			t.Errorf("%s: the export's version 2 is not the canonical encoding of the correction", what)
		}
		if _, err := v.VerifyAll(nil, nil); err != nil {
			t.Errorf("%s: VerifyAll: %v", what, err)
		}
	}
	check("after the correction", v)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	registerStaff(t, re)
	check("after a reopen", re)
}
