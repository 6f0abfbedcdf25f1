package core

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/provenance"
	"medvault/internal/wal"
)

// custodyVault opens a running durable vault holding two records, recA
// corrected once and recB, and checks that both chains and the sweep read
// clean.
func custodyVault(t *testing.T) (v *Cluster, mem *faultfs.Mem, recA, recB ehr.Record) {
	t.Helper()
	mem = faultfs.NewMem()
	v, err := Open(Config{Name: "medium-test", Master: mustKey(t), Clock: clock.NewVirtual(testEpoch), Dir: "vault", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	registerStaff(t, v)
	ctx := context.Background()
	mk := func(id string) ehr.Record {
		return ehr.Record{
			ID: id, MRN: "mrn-777", Patient: "Keiko Tanaka", Category: ehr.CategoryClinical,
			Author: "dr-house", CreatedAt: testEpoch, Title: "note", Body: "asthma follow-up",
		}
	}
	recA, recB = mk("mrn-777/enc-0"), mk("mrn-777/enc-1")
	for _, r := range []ehr.Record{recA, recB} {
		if _, err := v.PutCtx(ctx, "dr-house", r); err != nil {
			t.Fatal(err)
		}
	}
	recA.Body += " amended"
	if _, err := v.CorrectCtx(ctx, "dr-house", recA); err != nil {
		t.Fatal(err)
	}
	if chain, err := v.ProvenanceCtx(ctx, "officer-kim", recA.ID); err != nil || len(chain) != 2 {
		t.Fatalf("clean custody chain: %d events, %v; want 2", len(chain), err)
	}
	if rep, err := v.VerifyAll(nil, nil); err != nil || rep.ProvenanceChains != 2 {
		t.Fatalf("clean sweep: %+v, %v", rep, err)
	}
	return v, mem, recA, recB
}

// checkCustodyTampered requires recA's chain and the sweep to fail, never as
// a chain one event shorter, while recB's chain still reads.
func checkCustodyTampered(t *testing.T, v *Cluster, recA, recB ehr.Record) {
	t.Helper()
	ctx := context.Background()
	if chain, err := v.ProvenanceCtx(ctx, "officer-kim", recA.ID); !errors.Is(err, provenance.ErrChainBroken) || chain != nil {
		t.Errorf("custody over a flipped byte: %d events, %v; want none, ErrChainBroken", len(chain), err)
	}
	if chain, err := v.ProvenanceCtx(ctx, "officer-kim", recB.ID); err != nil || len(chain) != 1 {
		t.Errorf("custody beside the flipped byte: %d events, %v; want 1, nil", len(chain), err)
	}
	if _, err := v.VerifyAll(nil, nil); !errors.Is(err, ErrTampered) {
		t.Errorf("sweep over a flipped custody byte: %v, want ErrTampered", err)
	}
}

// TestVerifyAllSeesTheCustodyMedium: custody chains are read from the
// medium, so one flipped byte in an already-written custody frame of a
// running durable vault fails both the chain's reader and the sweep — never
// a chain one event shorter — while a chain the byte is no part of still
// reads. A checkpoint (here SanitizeMedia) is what writes the frames.
func TestVerifyAllSeesTheCustodyMedium(t *testing.T) {
	v, mem, recA, recB := custodyVault(t)
	if _, _, err := v.SanitizeMedia("arch-lee"); err != nil {
		t.Fatal(err)
	}

	// recA's create is the custody store's first frame; flip a byte inside it.
	seg := "vault/prov/" + blockstore.SegmentName(0)
	raw, err := mem.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[40] ^= 0x01
	if err := mem.WriteFile(seg, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	checkCustodyTampered(t, v, recA, recB)
}

// TestVerifyAllSeesAPendingCustodyEntry: before a checkpoint, a mutation's
// custody event lives in its meta.wal entry. An insider who edits the
// author of recA's create there, and recomputes the frame's CRC so the WAL
// reads clean, breaks recA's chain: the event rebuilt from the entry no
// longer hashes into the head the tracker holds.
func TestVerifyAllSeesAPendingCustodyEntry(t *testing.T) {
	v, mem, recA, recB := custodyVault(t)
	sh := v.shardFor(recA.ID)
	st, _ := sh.lookup(recA.ID)
	editWALEntry(t, sh, mem, st.at(1).ref(), func(e *walEntry) { e.ver.Author = "dr-housf" })
	checkCustodyTampered(t, v, recA, recB)
}

// editWALEntry rewrites the meta.wal entry at ref in place, through edit, as
// a format-aware insider would: same length, valid CRC.
func editWALEntry(t *testing.T, v *Vault, mem *faultfs.Mem, ref blockstore.Ref, edit func(*walEntry)) {
	t.Helper()
	if err := wal.CorruptEntry(mem, filepath.Join(v.dir, "meta.wal"), int64(ref.Offset), func(data []byte) []byte {
		e, err := decodeWALEntry(data)
		if err != nil {
			t.Fatal(err)
		}
		edit(&e)
		return e.encode()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCustodyStoreWrittenOnlyAtCheckpoint is the exact custody I/O of a
// durable shard. Puts, corrections and a shred write nothing under prov/:
// each event stays in its meta.wal entry. A backup between two corrections
// writes its record's two pending events, then its own, unsynced. Close
// writes one frame per pending event, then syncs once. The chains a reader
// gets do not depend on where the events live: every export bundle is the
// same before Close, after Close and reopen, and after a reopen from a
// crash image.
func TestCustodyStoreWrittenOnlyAtCheckpoint(t *testing.T) {
	var writes, syncs int
	mem := faultfs.NewMem()
	fsys := faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		if strings.Contains(op.Path, "/prov/") {
			switch op.Kind {
			case faultfs.OpWrite:
				writes++
			case faultfs.OpSync:
				syncs++
			}
		}
		return nil
	})
	v, vc, err := openTorture(fsys, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	custodyIO := func(what string, wantWrites, wantSyncs int) {
		t.Helper()
		if writes != wantWrites || syncs != wantSyncs {
			t.Errorf("%s: %d writes and %d fsyncs under prov/, want %d and %d", what, writes, syncs, wantWrites, wantSyncs)
		}
		writes, syncs = 0, 0
	}
	correct := func(id string, n int) {
		t.Helper()
		if _, err := v.CorrectCtx(ctx, "dr-house", tortureRecord(id, n, vc.Now())); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"a", "b", "c"} {
		if _, err := v.PutCtx(ctx, "dr-house", tortureRecord(id, 1, vc.Now())); err != nil {
			t.Fatal(err)
		}
	}
	correct("a", 2)
	custodyIO("three puts and a correction", 0, 0)
	if err := v.RecordBackedUp("arch-lee", "a", "tape-1"); err != nil {
		t.Fatal(err)
	}
	custodyIO("a backup of a record with two pending events", 3, 0)
	correct("a", 3)
	correct("b", 2)
	vc.Advance(40 * 365 * 24 * time.Hour)
	if err := v.ShredCtx(ctx, "arch-lee", "c"); err != nil {
		t.Fatal(err)
	}
	custodyIO("two corrections and a shred", 0, 0)

	bundles := func(v *Cluster) map[string]string {
		t.Helper()
		out := map[string]string{}
		for _, id := range []string{"a", "b"} {
			b, err := v.Export("arch-lee", id)
			if err != nil {
				t.Fatal(err)
			}
			out[id] = string(EncodeBundle(b))
		}
		chain, err := v.Shard(0).prov.Export("c")
		if err != nil || len(chain) != 2 {
			t.Fatalf("shredded record's chain: %d events, %v; want 2", len(chain), err)
		}
		out["c"] = string(provenance.EncodeEvent(chain[1]))
		return out
	}
	want := bundles(v)
	if chain, _ := v.Shard(0).prov.Chain("a"); len(chain) != 4 || chain[2].Type != provenance.EventBackedUp {
		t.Fatalf("a's chain: %d events, want created, corrected, backed-up, corrected", len(chain))
	}
	killed := mem.CrashImage(faultfs.KeepAll)
	cut := mem.CrashImage(faultfs.KeepNone)
	writes, syncs = 0, 0
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	custodyIO("Close with five pending events", 5, 1)

	for _, tc := range []struct {
		what string
		fsys faultfs.FS
		ids  []string
	}{
		{"Close and reopen", mem, []string{"a", "b", "c"}},
		{"reopen after kill -9", killed, []string{"a", "b", "c"}},
		// A power cut loses the backup's unsynced event; every mutation's
		// event is in meta.wal.
		{"reopen after a power cut", cut, []string{"b", "c"}},
	} {
		re, _, err := openTorture(tc.fsys, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := bundles(re)
		for _, id := range tc.ids {
			if got[id] != want[id] {
				t.Errorf("%s: %s's export differs from the one before Close", tc.what, id)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestImportCustodyDurableAtAck: an import's custody — the source's chain
// it adopts and its own arrival event — rides in no meta.wal entry, so the
// import syncs the custody store before it acks. After an acked Import and a
// power cut, the imported record reopens with both events. Backups and
// migrations out still reach prov/ unsynced (see
// TestCustodyStoreWrittenOnlyAtCheckpoint).
func TestImportCustodyDurableAtAck(t *testing.T) {
	src, vc, err := openTorture(faultfs.NewMem(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.PutCtx(context.Background(), "dr-house", tortureRecord("moved", 1, vc.Now())); err != nil {
		t.Fatal(err)
	}
	bundle, err := src.Export("arch-lee", "moved")
	if err != nil {
		t.Fatal(err)
	}
	mem := faultfs.NewMem()
	dst, _, err := openTorture(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.Import("arch-lee", bundle, "source-system"); err != nil {
		t.Fatal(err)
	}

	re, _, err := openTorture(mem.CrashImage(faultfs.KeepNone), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, err := re.VersionCount("moved"); err != nil || n != 1 {
		t.Fatalf("imported record after a power cut: %d versions, %v; want 1", n, err)
	}
	chain, err := re.Shard(0).prov.Chain("moved")
	var types []provenance.EventType
	for _, ev := range chain {
		types = append(types, ev.Type)
	}
	if err != nil || len(types) != 2 || types[0] != provenance.EventCreated || types[1] != provenance.EventMigratedIn {
		t.Fatalf("custody after a power cut: %v, %v; want created, migrated-in", types, err)
	}
}
