package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/frame"
	"medvault/internal/vcrypto"
	"medvault/internal/wal"
)

// mediumScript runs a fixed script on a durable vault over a faultfs.Mem
// disk and returns the disk, the vault still open (the image a kill -9
// leaves) and the number of ops: creates, corrections, gets, a hold and a
// shred.
func mediumScript(t *testing.T) (*faultfs.Mem, *Cluster, int) {
	t.Helper()
	mem := faultfs.NewMem()
	vc := mustClock()
	v, err := Open(Config{Name: "medium", Master: mustKey(t), Clock: vc, Dir: "vault", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	registerStaff(t, v)
	ctx := context.Background()
	recs := clinicalRecords(t, 7, 12)
	ops := 0
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("op %d: %v", ops, err)
		}
		ops++
	}
	for _, r := range recs {
		_, err := v.PutCtx(ctx, "dr-house", r)
		step(err)
	}
	for _, r := range recs[:6] {
		r.Body += " (amended)"
		_, err := v.CorrectCtx(ctx, "dr-house", r)
		step(err)
	}
	for _, r := range recs {
		_, _, err := v.GetCtx(ctx, "dr-house", r.ID)
		step(err)
	}
	step(v.PlaceHoldCtx(ctx, "arch-lee", recs[0].ID, "matter 7"))
	vc.Advance(30 * 365 * 24 * time.Hour) // past the record's retention period
	step(v.ShredCtx(ctx, "arch-lee", recs[11].ID))
	return mem, v, ops
}

// TestMediumBytesPerOp is the exact count behind the at-rest layouts: a
// fixed script's meta.wal and audit/ bytes before Close, here and as eight
// older binaries wrote them. This binary writes every audit event in the v8
// layout; the parent wrote the same events in v7 (v7Len), so its meta.wal is
// this run's with each standalone entry re-spelled, and its audit/ after
// Close is this run's with every event re-spelled. The binary before wrote
// every audit event to audit/ as its own frame; its parent writes each to
// meta.wal, a create's or correction's allowed event folded into its own
// entry (its detail, trace and tag, after an empty-ciphertext marker) and
// every other as an entry of its own, the same bytes in the same Var frame.
// So that binary's meta.wal is this run's without the standalone entries and
// the folds, and its audit/ is the parent's after Close: every event in v7.
// The binary before it wrote each event in the v6 layout, whose 32-B MAC v7
// stores as a 16-B tag: 16 B per event. The binary before it wrote v5, whose
// 8-byte link and 1-byte MAC length v6 leaves out: 9 B more per event. The
// binary before that logged each create with its record's category, MRN and created time in
// the clear and a 60-B AES-GCM wrapped DEK (parentEncode); the binary before
// that sealed each version as its MVR1 encoding; the one before that also
// framed WAL entries as frame.Seq frames and audit events as frame.Block
// frames (16 → 6 B per entry of 128 B or more, 5 B under, plus one 20-B
// layout marker; 9 → 5 B per audit event under 128 B, 6 B up to 16 KiB).
// This run's entries, each create re-encoded with clear identity, then each
// ciphertext as long as its version's MVR1 encoding would seal to, and each
// audit event 16 B and then 9 B longer, must add up to what those binaries
// measured. A create is exactly 40 B less than with clear identity: 20 B of
// it (the fixture's MRNs are 10 characters) and 20 B of wrap.
func TestMediumBytesPerOp(t *testing.T) {
	const (
		seqWAL, seqAudit     = 7200, 2636  // 225.0 and 82.4 B/op: frame.Seq and frame.Block, MVR1 seals, v5 events
		mvr1WAL              = 7018        // 219.3 B/op: frame.Var, MVR1 seals
		clearWAL, v5Audit    = 6036, 2504  // 188.6 and 78.2 B/op: clear identity and AES-GCM wraps in creates; v5 events
		v6Audit              = 2207        // 69.0 B/op: v6 events
		oldWAL, v7Audit      = 5556, 1679  // 173.6 and 52.5 B/op: every audit event in audit/, in v7
		parentWAL            = 6698        // 209.3 B/op: every audit event in meta.wal, in v7
		wantWAL, wantAudit   = 6586, 0     // 205.8 and 0 B/op: every audit event in meta.wal, in v8
		v8Audit              = 1431        // 44.7 B/op: audit/ after Close, in v8
		perCreate, perEvent  = 40, 9       // perEvent: a v5 event's link and MAC length
		perTag               = 16          // a v6 event's whole MAC less a v7 tag
		folded, folds, alone = 18, 412, 15 // folded events, their folds in B, standalone events
		perFolded, perAlone  = 1, 0        // what meta.wal spends on an event beyond its fold, or its frame
		getFrame             = 29          // a get's standalone event once its detail is defined (36 B in v7)
	)
	mem, v, ops := mediumScript(t)
	versions := map[string][]ehr.Record{}
	for i, r := range clinicalRecords(t, 7, 12) {
		versions[r.ID] = append(versions[r.ID], r)
		if i < 6 {
			r.Body += " (amended)"
			versions[r.ID] = append(versions[r.ID], r)
		}
	}

	walPath := filepath.Join("vault", "meta.wal")
	walImage, err := mem.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if auditBytes := int(v.Shard(0).auditStore.StorageBytes()); len(walImage) != wantWAL || auditBytes != wantAudit {
		t.Errorf("meta.wal %d B, audit %d B; want %d and %d", len(walImage), auditBytes, wantWAL, wantAudit)
	}
	marker := len(frame.Seq.Append(nil, 0, []byte("!var")))
	entries, creates, walVar, walOld, walClear, walMVR1, walSeq := 0, 0, marker, marker, marker, marker, 0
	foldedEvents, foldBytes, aloneEvents, aloneFrames, walParent := 0, 0, 0, 0, marker
	var aloneSizes []int
	if _, _, err := wal.Read(mem, walPath, func(e wal.Entry) error {
		entries++
		walVar += len(frame.Var.Append(nil, 0, e.Data))
		we, err := decodeWALEntry(e.Data)
		switch {
		case err != nil:
			return err
		case we.kind == 'A':
			aloneEvents++
			aloneFrames += len(frame.Var.Append(nil, 0, e.Data))
			aloneSizes = append(aloneSizes, len(frame.Var.Append(nil, 0, e.Data)))
			walParent += len(frame.Var.Append(nil, 0, make([]byte, v7Len(e.Data))))
			return nil
		case we.event != nil:
			foldedEvents++
			foldBytes += len(we.event)
			we.event = nil // as the parent logged it
		}
		older := we.encode()
		walOld += len(frame.Var.Append(nil, 0, older))
		walParent += len(frame.Var.Append(nil, 0, e.Data))
		if we.ct != nil {
			recs := versions[we.id]
			rec := recs[we.ver.Number-1]
			sealed, canonical := len(ehr.EncodeSealed(rec)), len(ehr.Encode(rec))
			if len(we.ct)-sealed != vcrypto.Overhead {
				t.Errorf("%s v%d: %d B of ciphertext for a %d-B sealed record", we.id, we.ver.Number, len(we.ct), sealed)
			}
			if we.ver.Number == 1 {
				creates++
			}
			walClear += len(frame.Var.Append(nil, 0, parentEncode(we, recs[0])))
			we.ct = make([]byte, canonical+vcrypto.Overhead)
			older = parentEncode(we, recs[0])
		} else {
			walClear += len(frame.Var.Append(nil, 0, older))
		}
		walMVR1 += len(frame.Var.Append(nil, 0, older))
		walSeq += len(frame.Seq.Append(nil, 0, older))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := blockstore.OpenFileFS(mem, filepath.Join("vault", "audit"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	events, auditVar, auditV7, auditV6, auditV5, auditBlock := 0, 0, 0, 0, 0, 0
	if err := store.Scan(func(_ blockstore.Ref, p []byte) error {
		if p[0] != 8 {
			return fmt.Errorf("audit event %d is in layout v%d, want v8", events, p[0])
		}
		events++
		v7 := make([]byte, v7Len(p))
		v6 := make([]byte, len(v7)+perTag)
		v5 := make([]byte, len(v6)+perEvent)
		auditVar += len(frame.Var.Append(nil, 0, p))
		auditV7 += len(frame.Var.Append(nil, 0, v7))
		auditV6 += len(frame.Var.Append(nil, 0, v6))
		auditV5 += len(frame.Var.Append(nil, 0, v5))
		auditBlock += len(frame.Block.Append(nil, 0, v5))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	auditBytes := int(store.StorageBytes())

	per := func(n int) float64 { return float64(n) / float64(ops) }
	t.Logf("%d ops, %d meta.wal entries (%d creates, %d folded events, %d standalone), %d audit events", ops, entries, creates, foldedEvents, aloneEvents, events)
	t.Logf("meta.wal: %d B (%.1f B/op); in the v7 layout, the parent's, %d B (%.1f B/op); with every audit event in audit/ %d B (%.1f B/op); with clear identity in creates %d B (%.1f B/op); with MVR1 seals %d B (%.1f B/op), and in Seq frames %d B (%.1f B/op)",
		len(walImage), per(len(walImage)), walParent, per(walParent), walOld, per(walOld), walClear, per(walClear), walMVR1, per(walMVR1), walSeq, per(walSeq))
	t.Logf("audit/ after Close: %d B (%.1f B/op); in the v7 layout %d B (%.1f B/op), in v6 %d B (%.1f B/op), in v5 %d B (%.1f B/op), and in Block frames %d B (%.1f B/op)",
		auditBytes, per(auditBytes), auditV7, per(auditV7), auditV6, per(auditV6), auditV5, per(auditV5), auditBlock, per(auditBlock))
	if len(walImage) != walVar || auditBytes != auditVar {
		t.Errorf("meta.wal is %d B and audit/ %d B, but their payloads in Var frames %d and %d B", len(walImage), auditBytes, walVar, auditVar)
	}
	// The gets' events, the first defining its detail; then the hold's
	// decision and event, and the shred's decision, 30 years on.
	want := []int{71}
	for range 11 {
		want = append(want, getFrame)
	}
	if want = append(want, 73, 57, 80); !slices.Equal(aloneSizes, want) {
		t.Errorf("standalone events of %v B, frame included; want %v", aloneSizes, want)
	}
	if foldedEvents != folded || foldBytes != folds || aloneEvents != alone || events != folded+alone {
		t.Errorf("%d folded events (%d B of folds) and %d standalone, %d in audit/ after Close; want %d (%d B), %d and %d",
			foldedEvents, foldBytes, aloneEvents, events, folded, folds, alone, folded+alone)
	}
	if len(walImage)-walOld != perFolded*folded+folds+aloneFrames+perAlone*alone {
		t.Errorf("meta.wal is %d B more than with every audit event in audit/, want %d B per folded event beyond its %d B of folds, and the standalone events' %d B of frames",
			len(walImage)-walOld, perFolded, folds, aloneFrames)
	}
	if walParent != parentWAL || auditBytes != v8Audit || walOld != oldWAL || auditV7 != v7Audit {
		t.Errorf("this run's layouts: audit/ %d B; the parent's meta.wal %d B and audit/ %d B, and the binary's before it meta.wal %d B; want %d, %d, %d and %d",
			auditBytes, walParent, auditV7, walOld, v8Audit, parentWAL, v7Audit, oldWAL)
	}
	if walClear != clearWAL || walMVR1 != mvr1WAL || walSeq != seqWAL || auditV6 != v6Audit || auditV5 != v5Audit || auditBlock != seqAudit {
		t.Errorf("older layouts of this run: meta.wal %d B with clear identity, %d B with MVR1 seals and %d B in Seq frames, audit %d B in v6, %d B in v5 and %d B in Block frames; the older binaries measured %d, %d, %d, %d, %d and %d",
			walClear, walMVR1, walSeq, auditV6, auditV5, auditBlock, clearWAL, mvr1WAL, seqWAL, v6Audit, v5Audit, seqAudit)
	}
	if walClear-walOld != perCreate*creates {
		t.Errorf("meta.wal with every audit event in audit/ is %d B less than with clear identity over %d creates, want %d B per create", walClear-walOld, creates, perCreate)
	}
	if auditV6-auditV7 != perTag*events || auditV5-auditV6 != perEvent*events {
		t.Errorf("audit/ in v7 is %d B less than in v6 and %d B less than in v5 over %d events, want %d and %d B more per event", auditV6-auditV7, auditV5-auditV7, events, perTag, perTag+perEvent)
	}
}

// v7Len is the length of v8 audit event p spelled in the v7 layout, which
// holds the same fields: the whole 8-B time where v8 holds a varint delta,
// a header byte per word where v8 packs both words and the trace's shape
// into one uvarint, and a length byte before a minted trace ID's 8 bytes.
func v7Len(p []byte) int {
	_, delta := binary.Uvarint(p[1:])
	shape, packed := binary.Uvarint(p[1+delta:])
	return len(p) + 8 - delta + 2 - packed + int(shape&1)
}

// TestUpgradedDirectoryHoldsOnlyV2Tails: every block store in a directory
// this binary wrote ends in a v2 segment, whose name the older binary's
// segment rule refuses (blockstore's TestLegacySegmentsReadThenRolled): a
// fresh vault, and the older binary's fixture directory opened here and
// written to. TestParentDirectoryMixedWALLayouts reads such a directory back
// after a crash and after a Close; the older binary's meta.wal open refusing
// both layouts is wal's TestParentOpenRefusesV2.
func TestUpgradedDirectoryHoldsOnlyV2Tails(t *testing.T) {
	v2Tails := func(what string, fsys faultfs.FS, dir string) {
		t.Helper()
		for _, store := range []string{"blocks", "audit", "prov"} {
			names, err := fsys.ReadDir(filepath.Join(dir, store))
			if err != nil {
				t.Fatal(err)
			}
			if last := names[len(names)-1].Name(); last != blockstore.SegmentName(len(names)-1) {
				t.Errorf("%s: %s/ ends with %s, want a v2 segment", what, store, last)
			}
		}
	}

	mem, _, _ := mediumScript(t)
	v2Tails("fresh vault", mem, "vault")

	var seed [32]byte
	copy(seed[:], "medvault-fixture-master-seed-32b")
	master, err := vcrypto.KeyFromBytes(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent-single-vault"), dir)
	v, err := Open(Config{Name: "fixture", Master: master, Clock: clock.NewVirtual(parentFixture.now), Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	registerStaff(t, v)
	rec, _, err := v.GetCtx(context.Background(), "dr-house", "fx-c")
	if err != nil {
		t.Fatal(err)
	}
	rec.Body = "fx-c, corrected after the upgrade"
	if _, err := v.CorrectCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	v2Tails("the older binary's directory, written to", faultfs.OS{}, dir)
}
