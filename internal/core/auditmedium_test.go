package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"medvault/internal/audit"
	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/wal"
)

// TestVerifyAllSeesTheAuditMedium: the sweep vouches for the audit bytes on
// disk, not for what the process remembers having written. One flipped byte
// in an already-written frame of a running durable vault must fail it. The
// events reach audit/ at a checkpoint, so the vault is closed and reopened
// before the flip.
func TestVerifyAllSeesTheAuditMedium(t *testing.T) {
	dir, master := t.TempDir(), mustKey(t)
	v, err := Open(Config{Name: "medium-test", Master: master, Clock: clock.NewVirtual(testEpoch), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { v.Close() }()
	registerStaff(t, v)
	ctx := context.Background()
	rec := clinicalRecord(t, 1)
	if _, err := v.PutCtx(ctx, "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, err := v.GetCtx(ctx, "dr-house", rec.ID); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := v.VerifyAll(nil, nil); err != nil || rep.AuditEvents < 50 {
		t.Fatalf("clean sweep: %+v, %v", rep, err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if v, err = Open(Config{Name: "medium-test", Master: master, Clock: clock.NewVirtual(testEpoch), Dir: dir}); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, "audit", blockstore.SegmentName(0))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x01
	if err := os.WriteFile(seg, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyAll(nil, nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("sweep over a flipped audit byte: %v, want ErrTampered", err)
	}
}

// TestCorruptAuditFrameFailsTheAnswer: an audit query or an accounting of
// disclosures whose answer includes an event that no longer reads back
// verified is an error — never the list minus that event — and so is one
// whose stream from the chain anchor before its answer passes that event.
func TestCorruptAuditFrameFailsTheAnswer(t *testing.T) {
	v, _ := newVault(t)
	ctx := context.Background()
	mk := func(id string) ehr.Record {
		return ehr.Record{
			ID: id, MRN: "mrn-777", Patient: "Keiko Tanaka", Category: ehr.CategoryClinical,
			Author: "dr-house", CreatedAt: testEpoch, Title: "note", Body: "asthma follow-up",
		}
	}
	recA, recB := mk("mrn-777/enc-0"), mk("mrn-777/enc-1")
	for _, r := range []ehr.Record{recA, recB} {
		if _, err := v.PutCtx(ctx, "dr-house", r); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := v.GetCtx(ctx, "dr-house", r.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ds, err := v.AccountingOfDisclosuresCtx(ctx, "officer-kim", "mrn-777"); err != nil || len(ds) != 8 {
		t.Fatalf("clean accounting: %d rows, %v; want 8", len(ds), err)
	}

	// A format-aware insider rewrites the one event that names recA in the
	// clear, its create, folded into the create's meta.wal entry: one tag bit
	// flipped, under a valid frame CRC.
	sh := v.Shard(0)
	st, _ := sh.lookup(recA.ID)
	editWALEntry(t, sh, sh.fs.(*faultfs.Mem), st.at(1).ref(), func(e *walEntry) {
		if e.event == nil {
			t.Fatal("recA's create folds no audit event")
		}
		e.event[len(e.event)-1] ^= 0x01
	})

	if evs, err := v.AuditEventsCtx(ctx, "officer-kim", audit.Query{Record: recA.ID}); !errors.Is(err, audit.ErrBadMAC) || evs != nil {
		t.Errorf("audit query over the forged event: %d events, %v; want none, ErrBadMAC", len(evs), err)
	}
	if ds, err := v.AccountingOfDisclosuresCtx(ctx, "officer-kim", "mrn-777"); !errors.Is(err, audit.ErrBadMAC) || ds != nil {
		t.Errorf("accounting over the forged event: %d rows, %v; want none, ErrBadMAC", len(ds), err)
	}
	// An answer the forged event is no part of fails too while its stream
	// passes the forged event, and is served once it starts at a later
	// anchor.
	if evs, err := v.AuditEventsCtx(ctx, "officer-kim", audit.Query{Record: recB.ID}); !errors.Is(err, audit.ErrBadMAC) || evs != nil {
		t.Errorf("audit query past the forged event: %d events, %v; want none, ErrBadMAC", len(evs), err)
	}
	for i := 0; i < 40; i++ {
		if _, _, err := v.GetCtx(ctx, "dr-house", recB.ID); err != nil {
			t.Fatal(err)
		}
	}
	recC := mk("mrn-778/enc-0")
	recC.MRN = "mrn-778"
	if _, err := v.PutCtx(ctx, "dr-house", recC); err != nil {
		t.Fatal(err)
	}
	if evs, err := v.AuditEventsCtx(ctx, "officer-kim", audit.Query{Record: recC.ID}); err != nil || len(evs) != 1 {
		t.Errorf("audit query a stretch after the forged event: %d events, %v; want 1, nil", len(evs), err)
	}
}

// TestAuditStoreWrittenOnlyAtCheckpoint is the exact audit I/O of a durable
// shard. Between checkpoints nothing is written under audit/: a put or a
// correction makes one meta.wal write and one fsync, its allowed event
// folded into its entry, and a get one meta.wal write and no fsync, its
// event an entry of its own. Close writes each event to audit/ once, then
// syncs once. The chain a reader gets does not depend on where the events
// live: it is the same before Close, after Close and reopen, and after a
// reopen from a kill -9 image; a power cut loses only the gets' events, which
// no fsync followed.
func TestAuditStoreWrittenOnlyAtCheckpoint(t *testing.T) {
	type io struct{ walWrites, walSyncs, auditWrites, auditSyncs int }
	var got io
	mem := faultfs.NewMem()
	fsys := faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		wal, aud := strings.HasSuffix(op.Path, "/meta.wal"), strings.Contains(op.Path, "/audit/")
		switch {
		case wal && op.Kind == faultfs.OpWrite:
			got.walWrites++
		case wal && op.Kind == faultfs.OpSync:
			got.walSyncs++
		case aud && op.Kind == faultfs.OpWrite:
			got.auditWrites++
		case aud && op.Kind == faultfs.OpSync:
			got.auditSyncs++
		}
		return nil
	})
	v, vc, err := openTorture(fsys, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	step := func(what string, want io, op func() error) {
		t.Helper()
		got = io{}
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got != want {
			t.Errorf("%s: %+v, want %+v", what, got, want)
		}
	}
	for _, id := range []string{"a", "b", "c"} {
		step("put "+id, io{walWrites: 1, walSyncs: 1}, func() error {
			_, err := v.PutCtx(ctx, "dr-house", tortureRecord(id, 1, vc.Now()))
			return err
		})
	}
	step("correction", io{walWrites: 1, walSyncs: 1}, func() error {
		_, err := v.CorrectCtx(ctx, "dr-house", tortureRecord("a", 2, vc.Now()))
		return err
	})
	for _, id := range []string{"a", "b"} {
		step("get "+id, io{walWrites: 1}, func() error {
			_, _, err := v.GetCtx(ctx, "dr-house", id)
			return err
		})
	}
	chain := func(v *Cluster) []audit.Event {
		t.Helper()
		events, err := v.Shard(0).aud.Search(audit.Query{})
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	want := chain(v)
	if len(want) != 6 {
		t.Fatalf("%d events, want 6", len(want))
	}
	killed := mem.CrashImage(faultfs.KeepAll)
	cut := mem.CrashImage(faultfs.KeepNone)
	step("Close", io{auditWrites: 6, auditSyncs: 1}, v.Close)

	for _, tc := range []struct {
		what string
		fsys faultfs.FS
		n    int
	}{
		{"Close and reopen", mem, 6},
		{"reopen after kill -9", killed, 6},
		{"reopen after a power cut", cut, 4},
	} {
		re, _, err := openTorture(tc.fsys, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := chain(re); !reflect.DeepEqual(got, want[:tc.n]) {
			t.Errorf("%s: the chain differs from the one before Close:\n got %v\nwant %v", tc.what, got, want[:tc.n])
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEditedFoldedEventFailsReopen: an insider who edits the author or the
// time of a folded create or correction in a kill -9 image, under a valid
// frame CRC, edits its allowed audit event, whose tag no longer checks: the
// reopen fails with ErrTampered, wrapping the audit log's ErrBadMAC, and
// never serves the edited version.
func TestEditedFoldedEventFailsReopen(t *testing.T) {
	mem := faultfs.NewMem()
	v, vc, err := openTorture(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	ctx := context.Background()
	for _, id := range []string{"a", "b"} {
		if _, err := v.PutCtx(ctx, "dr-house", tortureRecord(id, 1, vc.Now())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.CorrectCtx(ctx, "dr-house", tortureRecord("a", 2, vc.Now())); err != nil {
		t.Fatal(err)
	}
	st, _ := v.Shard(0).lookup("a")
	for _, tc := range []struct {
		what   string
		number uint64
		edit   func(*walEntry)
	}{
		{"the create's author", 1, func(e *walEntry) { e.ver.Author = "dr-housf" }},
		{"the create's time", 1, func(e *walEntry) { e.ver.Timestamp = e.ver.Timestamp.Add(time.Second) }},
		{"the correction's author", 2, func(e *walEntry) { e.ver.Author = "dr-housf" }},
		{"the correction's time", 2, func(e *walEntry) { e.ver.Timestamp = e.ver.Timestamp.Add(time.Second) }},
	} {
		img := mem.CrashImage(faultfs.KeepAll)
		if err := wal.CorruptEntry(img, "vault/meta.wal", int64(st.at(tc.number).offset), func(data []byte) []byte {
			e, err := decodeWALEntry(data)
			if err != nil || e.event == nil {
				t.Fatalf("%s: the entry holds no folded event (%v)", tc.what, err)
			}
			tc.edit(&e)
			return e.encode()
		}); err != nil {
			t.Fatal(err)
		}
		re, _, err := openTorture(img, 1)
		if err == nil {
			re.Close()
		}
		if !errors.Is(err, ErrTampered) || !errors.Is(err, audit.ErrBadMAC) {
			t.Errorf("reopen over an edit of %s: %v, want ErrTampered wrapping audit.ErrBadMAC", tc.what, err)
		}
	}
}

// TestPowerCutKeepsEveryMutationsEvent: every acked put's and correction's
// allowed event rides in the entry its ack waited to fsync, so a power cut
// that keeps no unsynced byte keeps them all, and every get's event that an
// acked mutation followed. (With events in their own unsynced store, such a
// cut kept none.)
func TestPowerCutKeepsEveryMutationsEvent(t *testing.T) {
	mem := faultfs.NewMem()
	v, vc, err := openTorture(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	ctx := context.Background()
	const puts = 50
	for i := 0; i < puts; i++ {
		id := fmt.Sprintf("r-%d", i)
		if _, err := v.PutCtx(ctx, "dr-house", tortureRecord(id, 1, vc.Now())); err != nil {
			t.Fatal(err)
		}
		if _, _, err := v.GetCtx(ctx, "dr-house", id); err != nil {
			t.Fatal(err)
		}
	}
	re, _, err := openTorture(mem.CrashImage(faultfs.KeepNone), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	events, err := re.Shard(0).aud.Search(audit.Query{})
	if err != nil {
		t.Fatal(err)
	}
	creates := 0
	for _, e := range events {
		if e.Action == audit.ActionCreate {
			creates++
		}
	}
	if creates != puts || len(events) != 2*puts-1 {
		t.Errorf("a power cut kept %d events, %d of them creates; want %d, all %d creates and every get's but the last", len(events), creates, 2*puts-1, puts)
	}
}

// TestWALWedgeStopsAuditedReads: the WAL is where every audit event goes, so
// once a write to it fails, a read — whose event must be on the medium
// before any PHI leaves — answers wedged like a mutation, and the shard
// reports both wedges, which are one.
func TestWALWedgeStopsAuditedReads(t *testing.T) {
	var fail atomic.Bool
	mem := faultfs.NewMem()
	v, vc, err := openTorture(faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		if op.Kind == faultfs.OpWrite && strings.HasSuffix(op.Path, "/meta.wal") && fail.CompareAndSwap(true, false) {
			return &faultfs.Fault{Err: faultfs.ErrNoSpace}
		}
		return nil
	}), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	ctx := context.Background()
	if _, err := v.PutCtx(ctx, "dr-house", tortureRecord("a", 1, vc.Now())); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	for i := 0; i < 2; i++ {
		if rec, _, err := v.GetCtx(ctx, "dr-house", "a"); !errors.Is(err, ErrWedged) || rec.Body != "" {
			t.Errorf("get %d after a failed meta.wal write: %v (body %q), want ErrWedged and no record", i, err, rec.Body)
		}
	}
	if h := v.Health(); !h.WALWedged || !h.AuditWedged {
		t.Errorf("health after a failed meta.wal write: %+v, want both wedged", h)
	}
}
