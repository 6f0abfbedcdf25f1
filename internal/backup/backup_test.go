package backup

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/obs"
	"medvault/internal/provenance"
	"medvault/internal/vcrypto"
)

var epoch = time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)

func newVault(t *testing.T, name string) *core.Cluster {
	t.Helper()
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.Open(core.Config{Name: name, Master: master, Clock: clock.NewVirtual(epoch)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	a := v.Authz()
	for _, r := range authz.StandardRoles() {
		a.DefineRole(r)
	}
	for id, role := range map[string]string{
		"dr-house": "physician", "arch-lee": "archivist", "officer-kim": "compliance-officer",
	} {
		if err := a.AddPrincipal(id, role); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

func seed(t *testing.T, v *core.Cluster, n int, genSeed int64) ([]string, *ehr.Generator) {
	t.Helper()
	g := ehr.NewGenerator(genSeed, epoch)
	var ids []string
	for len(ids) < n {
		r := g.Next()
		if r.Category != ehr.CategoryClinical && r.Category != ehr.CategoryLab {
			continue
		}
		if _, err := v.PutCtx(context.Background(), "dr-house", r); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
	}
	return ids, g
}

func backupKey(t *testing.T) vcrypto.Key {
	t.Helper()
	k, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestBackupSignsEveryCustodyEventItCarries pins a full backup's Ed25519
// signs. The vault's medium holds its custody events under a MAC and signs
// them as a chain leaves, so a backup signs every event of every chain it
// carries, and the manifest: with nothing else recorded, the k-th backup of a
// record signs 1+k events, its create and one backed-up event per backup so
// far. When every event was signed as it was recorded, each backup signed one
// event per record (its new backed-up one) and the manifest.
func TestBackupSignsEveryCustodyEventItCarries(t *testing.T) {
	const records = 20
	source := newVault(t, "hospital-a")
	seed(t, source, records, 1)
	key := backupKey(t)
	signs := obs.Default.Counter("medvault_crypto_ed25519_total", "", obs.L("op", "sign"))
	for k := 1; k <= 3; k++ {
		before := signs.Value()
		arch, err := Create(source, "arch-lee", key, "tape")
		if err != nil {
			t.Fatal(err)
		}
		got := signs.Value() - before
		t.Logf("backup %d: %d signs for %d records", k, got, len(arch.Manifest.Entries))
		if want := uint64(records*(1+k) + 1); got != want {
			t.Errorf("backup %d signed %d times, want %d: %d custody events per record and the manifest", k, got, want, 1+k)
		}
	}
}

func TestFullBackupAndRestore(t *testing.T) {
	source := newVault(t, "hospital-a")
	ids, _ := seed(t, source, 8, 1)
	key := backupKey(t)

	arch, err := Create(source, "arch-lee", key, "offsite-tape-1")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if len(arch.Manifest.Entries) != 8 || !arch.Manifest.Full {
		t.Fatalf("manifest = %+v", arch.Manifest)
	}
	if err := VerifyArchive(arch, key, source.PublicKey()); err != nil {
		t.Fatalf("VerifyArchive: %v", err)
	}

	target := newVault(t, "hospital-dr-site")
	n, err := Restore(arch, key, target, "arch-lee")
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if n != 8 || target.Len() != 8 {
		t.Fatalf("restored %d records, target has %d", n, target.Len())
	}
	for _, id := range ids {
		src, _, err := source.GetCtx(context.Background(), "dr-house", id)
		if err != nil {
			t.Fatal(err)
		}
		tgt, _, err := target.GetCtx(context.Background(), "dr-house", id)
		if err != nil {
			t.Fatalf("target Get(%s): %v", id, err)
		}
		if src.Body != tgt.Body {
			t.Errorf("%s differs after restore", id)
		}
	}
	if _, err := target.VerifyAll(nil, nil); err != nil {
		t.Errorf("restored vault failed verification: %v", err)
	}
	// Custody chains record backup and restore.
	chain, err := target.ProvenanceCtx(context.Background(), "officer-kim", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	var sawBackup, sawRestore bool
	for _, e := range chain {
		sawBackup = sawBackup || e.Type == provenance.EventBackedUp
		sawRestore = sawRestore || e.Type == provenance.EventRestored
	}
	if !sawBackup || !sawRestore {
		t.Errorf("custody chain missing backup/restore events")
	}
}

func TestIncrementalBackup(t *testing.T) {
	source := newVault(t, "a")
	ids, g := seed(t, source, 6, 2)
	key := backupKey(t)
	full, err := Create(source, "arch-lee", key, "tape")
	if err != nil {
		t.Fatal(err)
	}

	// Correct one record and add two new ones.
	rec, _, err := source.GetCtx(context.Background(), "dr-house", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := source.CorrectCtx(context.Background(), "dr-house", g.Correction(rec)); err != nil {
		t.Fatal(err)
	}
	// Continue the same generator so the new records get fresh IDs.
	var newIDs []string
	for len(newIDs) < 2 {
		r := g.Next()
		if r.Category != ehr.CategoryClinical {
			continue
		}
		if _, err := source.PutCtx(context.Background(), "dr-house", r); err != nil {
			t.Fatal(err)
		}
		newIDs = append(newIDs, r.ID)
	}

	inc, err := CreateIncremental(source, "arch-lee", key, "tape", full.Manifest)
	if err != nil {
		t.Fatalf("CreateIncremental: %v", err)
	}
	if inc.Manifest.Full {
		t.Error("incremental flagged as full")
	}
	if len(inc.Manifest.Entries) != 3 {
		t.Fatalf("incremental holds %d entries, want 3 (1 corrected + 2 new)", len(inc.Manifest.Entries))
	}
	got := map[string]bool{}
	for _, e := range inc.Manifest.Entries {
		got[e.ID] = true
	}
	if !got[ids[0]] || !got[newIDs[0]] || !got[newIDs[1]] {
		t.Errorf("incremental entries = %v", got)
	}

	// Restore chain: full then incremental. The corrected record arrives at
	// version 2.
	target := newVault(t, "dr")
	if _, err := Restore(full, key, target, "arch-lee"); err != nil {
		t.Fatal(err)
	}
	// The corrected record already exists from the full backup: restoring
	// the incremental over it must fail cleanly for that record, so restore
	// incrementals into a staging vault or use fresh targets per chain. We
	// verify the contract: Restore surfaces the conflict instead of
	// silently merging.
	if _, err := Restore(inc, key, target, "arch-lee"); err == nil {
		t.Fatal("incremental restore over existing records silently succeeded")
	}

	// The documented procedure: restore the newest chain into a fresh
	// vault, newest-first per record. Here: incremental first, then fill
	// gaps from the full backup.
	fresh := newVault(t, "dr2")
	if _, err := Restore(inc, key, fresh, "arch-lee"); err != nil {
		t.Fatal(err)
	}
	for _, e := range full.Manifest.Entries {
		if _, _, err := fresh.GetCtx(context.Background(), "dr-house", e.ID); err == nil {
			continue // already present from the incremental
		}
		plain, err := vcrypto.Open(key, full.Sealed[e.ID], []byte("backup/"+e.ID))
		if err != nil {
			t.Fatal(err)
		}
		bundle, err := core.DecodeBundle(plain)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.ImportRestored("arch-lee", bundle, full.Manifest.System); err != nil {
			t.Fatal(err)
		}
	}
	if fresh.Len() != 8 {
		t.Fatalf("chain restore produced %d records, want 8", fresh.Len())
	}
	got2, ver, err := fresh.GetCtx(context.Background(), "dr-house", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if ver.Number != 2 || !strings.Contains(got2.Body, "AMENDMENT") {
		t.Error("corrected record not restored at latest version")
	}
}

func TestArchiveConfidentiality(t *testing.T) {
	source := newVault(t, "a")
	ids, _ := seed(t, source, 4, 3)
	key := backupKey(t)
	arch, err := Create(source, "arch-lee", key, "tape")
	if err != nil {
		t.Fatal(err)
	}
	blob := Encode(arch)
	rec, _, err := source.GetCtx(context.Background(), "dr-house", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte(rec.Patient)) || bytes.Contains(blob, []byte(rec.Body)) {
		t.Error("backup blob leaks plaintext PHI")
	}
}

func TestArchiveTamperDetection(t *testing.T) {
	source := newVault(t, "a")
	seed(t, source, 3, 4)
	key := backupKey(t)
	arch, err := Create(source, "arch-lee", key, "tape")
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte in one sealed bundle.
	id := arch.Manifest.Entries[1].ID
	arch.Sealed[id][5] ^= 1
	if err := VerifyArchive(arch, key, nil); !errors.Is(err, ErrArchiveInvalid) {
		t.Errorf("sealed tamper: %v", err)
	}
	arch.Sealed[id][5] ^= 1 // restore

	// Drop an entry from the sealed set.
	saved := arch.Sealed[id]
	delete(arch.Sealed, id)
	if err := VerifyArchive(arch, key, nil); !errors.Is(err, ErrArchiveInvalid) {
		t.Errorf("missing bundle: %v", err)
	}
	arch.Sealed[id] = saved

	// Forge the manifest.
	arch.Manifest.System = "attacker"
	if err := VerifyArchive(arch, key, nil); !errors.Is(err, ErrArchiveInvalid) {
		t.Errorf("forged manifest: %v", err)
	}
}

func TestArchiveWrongKey(t *testing.T) {
	source := newVault(t, "a")
	seed(t, source, 2, 5)
	key := backupKey(t)
	arch, err := Create(source, "arch-lee", key, "tape")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyArchive(arch, backupKey(t), nil); !errors.Is(err, ErrWrongKey) {
		t.Errorf("wrong key: %v", err)
	}
	target := newVault(t, "b")
	if _, err := Restore(arch, backupKey(t), target, "arch-lee"); !errors.Is(err, ErrWrongKey) {
		t.Errorf("restore with wrong key: %v", err)
	}
}

func TestArchiveEncodeDecodeRoundTrip(t *testing.T) {
	source := newVault(t, "a")
	seed(t, source, 5, 6)
	key := backupKey(t)
	arch, err := Create(source, "arch-lee", key, "tape")
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(Encode(arch))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := VerifyArchive(decoded, key, source.PublicKey()); err != nil {
		t.Errorf("decoded archive fails verification: %v", err)
	}
	target := newVault(t, "b")
	if n, err := Restore(decoded, key, target, "arch-lee"); err != nil || n != 5 {
		t.Errorf("restore from decoded archive: %d, %v", n, err)
	}
	if _, err := Decode([]byte("garbage")); !errors.Is(err, ErrArchiveInvalid) {
		t.Errorf("garbage decode: %v", err)
	}
	// Truncation detected.
	blob := Encode(arch)
	if _, err := Decode(blob[:len(blob)-10]); !errors.Is(err, ErrArchiveInvalid) {
		t.Errorf("truncated decode: %v", err)
	}
}

func TestBackupRequiresPermission(t *testing.T) {
	source := newVault(t, "a")
	ids, _ := seed(t, source, 2, 8)
	if _, err := Create(source, "dr-house", backupKey(t), "tape"); !errors.Is(err, core.ErrDenied) {
		t.Errorf("physician backup: %v", err)
	}
	// The refusal leaves no backed-up event on the record's custody chain.
	for _, id := range ids {
		chain, err := source.ProvenanceCtx(context.Background(), "arch-lee", id)
		if err != nil || len(chain) != 1 {
			t.Errorf("%s after a denied backup: %d custody events, %v; want 1", id, len(chain), err)
		}
	}
}
