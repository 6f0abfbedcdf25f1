package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"medvault/internal/audit"
	"medvault/internal/blockstore"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/provenance"
	"medvault/internal/wal"
)

func TestSanitizeMediaDropsShreddedBytes(t *testing.T) {
	v, vc := newVault(t)
	a, err := NewAdapter(v)
	if err != nil {
		t.Fatal(err)
	}
	g := ehr.NewGenerator(60, testEpoch)
	var keep, doomed []ehr.Record
	for len(keep) < 5 || len(doomed) < 3 {
		r := g.Next()
		if r.Category != ehr.CategoryClinical {
			continue
		}
		r.CreatedAt = testEpoch
		if _, err := v.PutCtx(context.Background(), "dr-house", r); err != nil {
			t.Fatal(err)
		}
		if len(doomed) < 3 {
			doomed = append(doomed, r)
		} else {
			keep = append(keep, r)
		}
	}
	vc.Advance(40 * 365 * 24 * time.Hour)
	for _, r := range doomed {
		if err := v.ShredCtx(context.Background(), "arch-lee", r.ID); err != nil {
			t.Fatal(err)
		}
	}

	// Shredded ciphertext still occupies the medium (meta.wal, here) before
	// sanitization.
	bytesBefore := v.StorageBytes()
	dropped, reclaimed, err := v.SanitizeMedia("arch-lee")
	if err != nil {
		t.Fatalf("SanitizeMedia: %v", err)
	}
	if dropped != len(doomed) {
		t.Errorf("dropped %d versions, want %d", dropped, len(doomed))
	}
	if reclaimed <= 0 || v.StorageBytes() >= bytesBefore {
		t.Errorf("no bytes reclaimed: before=%d after=%d", bytesBefore, v.StorageBytes())
	}
	if after := v.StorageBytes(); reclaimed != bytesBefore-after {
		t.Errorf("reclaimed %d bytes, but storage went from %d to %d", reclaimed, bytesBefore, after)
	}

	// Live records remain fully readable and verifiable.
	for _, r := range keep {
		got, _, err := v.GetCtx(context.Background(), "dr-house", r.ID)
		if err != nil || got.Body != r.Body {
			t.Fatalf("live record %s damaged by sanitization: %v", r.ID, err)
		}
	}
	rep, err := v.VerifyAll(nil, nil)
	if err != nil {
		t.Fatalf("VerifyAll after sanitization: %v", err)
	}
	if rep.RecordsChecked != len(keep)+len(doomed) {
		t.Errorf("records checked = %d", rep.RecordsChecked)
	}
	// Shredded records still answer with ErrShredded, not NotFound.
	if _, _, err := v.GetCtx(context.Background(), "dr-house", doomed[0].ID); !errors.Is(err, ErrShredded) {
		t.Errorf("Get after sanitize: %v", err)
	}
	// And no remnant of the doomed ciphertext is on the medium (we check
	// via the adapter's raw view that the *old* ciphertext bytes are gone;
	// they were unreadable before, now they are absent).
	raw := a.RawBytes()
	for _, r := range doomed {
		if bytes.Contains(raw, []byte(r.Patient)) {
			t.Error("plaintext remnant after sanitize (should have been impossible even before)")
		}
	}
	// Idempotent: a second pass drops nothing new.
	dropped2, _, err := v.SanitizeMedia("arch-lee")
	if err != nil {
		t.Fatal(err)
	}
	if dropped2 != 0 {
		t.Errorf("second sanitize dropped %d", dropped2)
	}
}

func TestSanitizeMediaAuthz(t *testing.T) {
	v, _ := newVault(t)
	if _, _, err := v.SanitizeMedia("dr-house"); !errors.Is(err, ErrDenied) {
		t.Errorf("physician sanitize: %v", err)
	}
}

func TestSanitizeMediaDurable(t *testing.T) {
	dir := t.TempDir()
	master, vc := mustKey(t), mustClock()
	v := openDurable(t, dir, master, vc)
	g := ehr.NewGenerator(63, testEpoch)
	var keep, doomed ehr.Record
	for doomed = g.Next(); doomed.Category != ehr.CategoryClinical; doomed = g.Next() {
	}
	for keep = g.Next(); keep.Category != ehr.CategoryClinical; keep = g.Next() {
	}
	doomed.CreatedAt, keep.CreatedAt = testEpoch, testEpoch
	doomed.Body = "radiotherapy session notes to be destroyed"
	if _, err := v.PutCtx(context.Background(), "dr-house", doomed); err != nil {
		t.Fatal(err)
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", keep); err != nil {
		t.Fatal(err)
	}
	vc.Advance(40 * 365 * 24 * time.Hour)
	if err := v.ShredCtx(context.Background(), "arch-lee", doomed.ID); err != nil {
		t.Fatal(err)
	}

	dropped, reclaimed, err := v.SanitizeMedia("arch-lee")
	if err != nil {
		t.Fatalf("durable SanitizeMedia: %v", err)
	}
	if dropped != 1 || reclaimed <= 0 {
		t.Errorf("dropped=%d reclaimed=%d", dropped, reclaimed)
	}
	// Live record fine; verification green; vault still writable.
	if _, _, err := v.GetCtx(context.Background(), "dr-house", keep.ID); err != nil {
		t.Fatalf("live record after durable sanitize: %v", err)
	}
	if _, err := v.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll after durable sanitize: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the sanitized media and checkpointed metadata recover cleanly.
	re := openDurable(t, dir, master, vc)
	defer re.Close()
	if _, _, err := re.GetCtx(context.Background(), "dr-house", keep.ID); err != nil {
		t.Fatalf("live record after reopen: %v", err)
	}
	if _, _, err := re.GetCtx(context.Background(), "dr-house", doomed.ID); !errors.Is(err, ErrShredded) {
		t.Errorf("doomed record after reopen: %v", err)
	}
	if _, err := re.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll after reopen: %v", err)
	}
	// And the doomed record's ciphertext is genuinely absent from the files.
	raw, err := re.Shard(0).blocks.ReadRaw()
	if err != nil {
		t.Fatal(err)
	}
	// Two versions were written originally; only one block remains.
	got := 0
	if err := re.Shard(0).blocks.Scan(func(blockstore.Ref, []byte) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("blocks on media = %d, want 1", got)
	}
	if bytes.Contains(raw, []byte(doomed.Patient)) {
		t.Error("plaintext on sanitized media")
	}
}

func TestSanitizeThenContinueOperating(t *testing.T) {
	v, vc := newVault(t)
	rec := clinicalRecord(t, 61)
	rec.CreatedAt = testEpoch
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	vc.Advance(40 * 365 * 24 * time.Hour)
	if err := v.ShredCtx(context.Background(), "arch-lee", rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.SanitizeMedia("arch-lee"); err != nil {
		t.Fatal(err)
	}
	// New writes and corrections work on the rewritten medium.
	g := ehr.NewGenerator(62, testEpoch)
	var r2 ehr.Record
	for r2 = g.Next(); r2.Category != ehr.CategoryClinical; r2 = g.Next() {
	}
	r2.ID = "post-sanitize/enc-0"
	if _, err := v.PutCtx(context.Background(), "dr-house", r2); err != nil {
		t.Fatalf("Put after sanitize: %v", err)
	}
	if _, err := v.CorrectCtx(context.Background(), "dr-house", r2); err != nil {
		t.Fatalf("Correct after sanitize: %v", err)
	}
	if _, err := v.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll after post-sanitize writes: %v", err)
	}
}

// TestSanitizeMediaFailureLeavesVaultIntact: a pass that fails while copying
// must leave the vault exactly as it was. SanitizeMedia used to rewrite each
// version's Ref in place as it copied, so one ENOSPC under blocks.sanitize
// left healthy records pointing into a store that never went live
// (ErrTampered on read), and a Close then snapshotted the dangling refs.
func TestSanitizeMediaFailureLeavesVaultIntact(t *testing.T) {
	ctx := context.Background()
	for failAt := 0; ; failAt++ {
		mem := faultfs.NewMem()
		writes, fired := 0, false
		fsys := faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
			if op.Kind == faultfs.OpWrite && strings.Contains(op.Path, "/blocks/") && !fired {
				if writes++; writes > failAt {
					fired = true
					return &faultfs.Fault{Err: faultfs.ErrNoSpace}
				}
			}
			return nil
		})
		v, vc, err := openTorture(fsys, 1)
		if err != nil {
			t.Fatal(err)
		}
		old := vc.Now().Add(-50 * 365 * 24 * time.Hour)
		bodies := map[string][]string{}
		for _, id := range []string{"keep-a", "keep-b", "keep-c", "doomed"} {
			rec := tortureRecord(id, 1, old)
			if _, err := v.PutCtx(ctx, "dr-house", rec); err != nil {
				t.Fatal(err)
			}
			bodies[id] = []string{rec.Body}
		}
		fix := tortureRecord("keep-b", 2, old)
		if _, err := v.CorrectCtx(ctx, "dr-house", fix); err != nil {
			t.Fatal(err)
		}
		bodies["keep-b"] = append(bodies["keep-b"], fix.Body)
		if err := v.ShredCtx(ctx, "arch-lee", "doomed"); err != nil {
			t.Fatal(err)
		}
		delete(bodies, "doomed")
		intact := func(when string, v *Cluster) {
			t.Helper()
			for id, want := range bodies {
				for n, body := range want {
					got, _, err := v.GetVersionCtx(ctx, "dr-house", id, uint64(n+1))
					if err != nil || got.Body != body {
						t.Fatalf("fault at write %d, %s: %s v%d: %v", failAt, when, id, n+1, err)
					}
				}
			}
			if _, err := v.VerifyAll(nil, nil); err != nil {
				t.Fatalf("fault at write %d, %s: VerifyAll: %v", failAt, when, err)
			}
		}

		_, _, err = v.SanitizeMedia("arch-lee")
		if !fired {
			// Past the last staging write: the pass ran clean and we are done.
			if err != nil {
				t.Fatalf("unfaulted SanitizeMedia: %v", err)
			}
			if failAt < len(bodies) {
				t.Fatalf("only %d staging writes seen; the fault loop tested nothing", failAt)
			}
			v.Close()
			return
		}
		if !errors.Is(err, faultfs.ErrNoSpace) {
			t.Fatalf("fault at write %d: SanitizeMedia: %v", failAt, err)
		}
		intact("after the failed pass", v)
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		re, _, err := openTorture(fsys, 1)
		if err != nil {
			t.Fatalf("fault at write %d: reopen: %v", failAt, err)
		}
		intact("after close and reopen", re)
		dropped, reclaimed, err := re.SanitizeMedia("arch-lee")
		if err != nil || dropped != 1 || reclaimed <= 0 {
			t.Fatalf("fault at write %d: second SanitizeMedia: dropped=%d reclaimed=%d err=%v", failAt, dropped, reclaimed, err)
		}
		intact("after the retried pass", re)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSanitizeMediaBlockSyncFailureKeepsWAL: when the block store's fsync
// fails inside SanitizeMedia, the store wedges, so Close cannot vouch for the
// blocks with a later fsync that may succeed over dropped pages: it leaves
// meta.wal — where every version's ciphertext still is — as it was. After a
// power cut the reopened vault reads every version and verifies clean.
// Before the block store wedged, Close's second fsync succeeded and it
// truncated meta.wal.
func TestSanitizeMediaBlockSyncFailureKeepsWAL(t *testing.T) {
	ctx := context.Background()
	mem := faultfs.NewMem()
	var failBlockSync atomic.Bool
	v, vc, err := openTorture(faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		if op.Kind == faultfs.OpSync && strings.Contains(op.Path, "/blocks/") && failBlockSync.CompareAndSwap(true, false) {
			return &faultfs.Fault{Err: faultfs.ErrInjected}
		}
		return nil
	}), 1)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]string{}
	for _, id := range []string{"kept", "corrected", "doomed"} {
		rec := tortureRecord(id, 1, vc.Now())
		if _, err := v.PutCtx(ctx, "dr-house", rec); err != nil {
			t.Fatal(err)
		}
		bodies[id] = []string{rec.Body}
	}
	rec := tortureRecord("corrected", 2, vc.Now())
	if _, err := v.CorrectCtx(ctx, "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	bodies["corrected"] = append(bodies["corrected"], rec.Body)
	vc.Advance(40 * 365 * 24 * time.Hour)
	if err := v.ShredCtx(ctx, "arch-lee", "doomed"); err != nil {
		t.Fatal(err)
	}
	delete(bodies, "doomed")
	walBefore, err := mem.ReadFile("vault/meta.wal")
	if err != nil {
		t.Fatal(err)
	}

	failBlockSync.Store(true)
	if _, _, err := v.SanitizeMedia("arch-lee"); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("SanitizeMedia under a failing block fsync: %v", err)
	}
	// The pass's own decision is audited in meta.wal, and nothing else.
	if walBefore = onlyAuditAppended(t, mem, walBefore); walBefore == nil {
		t.Fatal("the failed SanitizeMedia wrote meta.wal beyond its audit event")
	}
	_ = v.Close()
	if walAfter, err := mem.ReadFile("vault/meta.wal"); err != nil || !bytes.Equal(walAfter, walBefore) {
		t.Fatalf("Close after a failed block fsync left meta.wal at %d B (%v), want it as it was (%d B)", len(walAfter), err, len(walBefore))
	}

	re, _, err := openTorture(mem.CrashImage(faultfs.KeepNone), 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	for id, want := range bodies {
		for i, body := range want {
			if got, _, err := re.GetVersionCtx(ctx, "dr-house", id, uint64(i+1)); err != nil || got.Body != body {
				t.Errorf("%s v%d after reopen: %v", id, i+1, err)
			}
		}
	}
	if _, _, err := re.GetCtx(ctx, "dr-house", "doomed"); !errors.Is(err, ErrShredded) {
		t.Errorf("shredded record after reopen: %v", err)
	}
	if _, err := re.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll after reopen: %v", err)
	}
}

// TestSanitizeMediaRefusesWedgedWAL: on a shard whose meta.wal has wedged,
// SanitizeMedia refuses before it stages or swaps anything. It used to
// rewrite the block store and repoint the live refs, and then the wedged WAL
// refused the checkpoint: meta.snap kept the old offsets into the rewritten
// store, so after a restart every version the snapshot held read as tampered.
func TestSanitizeMediaRefusesWedgedWAL(t *testing.T) {
	ctx := context.Background()
	mem := faultfs.NewMem()
	var full atomic.Bool
	fsys := faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		if full.Load() && underWAL(faultfs.OpWrite)(op) {
			return &faultfs.Fault{Err: faultfs.ErrNoSpace}
		}
		return nil
	})
	v, vc, err := openTorture(fsys, 1)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]string{}
	for _, id := range []string{"kept", "corrected", "doomed"} {
		rec := tortureRecord(id, 1, vc.Now())
		if _, err := v.PutCtx(ctx, "dr-house", rec); err != nil {
			t.Fatal(err)
		}
		bodies[id] = []string{rec.Body}
	}
	vc.Advance(40 * 365 * 24 * time.Hour)
	if err := v.ShredCtx(ctx, "arch-lee", "doomed"); err != nil {
		t.Fatal(err)
	}
	delete(bodies, "doomed")
	if err := v.Close(); err != nil { // the versions move to the block store
		t.Fatal(err)
	}

	v, _, err = openTorture(fsys, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := tortureRecord("corrected", 2, vc.Now()) // inline in meta.wal
	if _, err := v.CorrectCtx(ctx, "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	bodies["corrected"] = append(bodies["corrected"], rec.Body)
	full.Store(true)
	if _, err := v.PutCtx(ctx, "dr-house", tortureRecord("lost", 1, vc.Now())); !errors.Is(err, ErrWedged) {
		t.Fatalf("put on a full disk: %v, want ErrWedged", err)
	}
	blocks := func() map[string][]byte {
		out := map[string][]byte{}
		for p, data := range mem.Dump() {
			if strings.HasPrefix(p, "vault/blocks") {
				out[p] = data
			}
		}
		return out
	}
	before := blocks()
	if _, _, err := v.SanitizeMedia("arch-lee"); !errors.Is(err, ErrWedged) {
		t.Fatalf("SanitizeMedia on a wedged shard: %v, want ErrWedged", err)
	}
	if after := blocks(); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused SanitizeMedia touched the block store: %d files before, %d after", len(before), len(after))
	}
	_ = v.Close() // the wedged WAL refuses the checkpoint; the power cut follows

	re, _, err := openTorture(mem.CrashImage(faultfs.KeepNone), 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	for id, want := range bodies {
		for i, body := range want {
			if got, _, err := re.GetVersionCtx(ctx, "dr-house", id, uint64(i+1)); err != nil || got.Body != body {
				t.Errorf("%s v%d after reopen: %v", id, i+1, err)
			}
		}
	}
	if _, _, err := re.GetCtx(ctx, "dr-house", "doomed"); !errors.Is(err, ErrShredded) {
		t.Errorf("shredded record after reopen: %v", err)
	}
	if _, err := re.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll after reopen: %v", err)
	}
}

// TestSanitizeMediaRefusesOwedCustody: one ENOSPC on a backup's custody write
// wedges the shard's tracker while a shred's event is pending in meta.wal,
// and a checkpoint that cannot write the pending events keeps meta.wal.
// SanitizeMedia used to report the shredded version dropped while its
// ciphertext stayed in meta.wal; it now refuses before it touches the block
// store or meta.wal, and after a reopen (which pends the owed events again)
// a pass drops it.
func TestSanitizeMediaRefusesOwedCustody(t *testing.T) {
	ctx := context.Background()
	mem := faultfs.NewMem()
	var fail atomic.Bool
	fsys := faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		if op.Kind == faultfs.OpWrite && strings.Contains(op.Path, "/prov/") && fail.CompareAndSwap(true, false) {
			return &faultfs.Fault{Err: faultfs.ErrNoSpace}
		}
		return nil
	})
	v, vc, err := openTorture(fsys, 1)
	if err != nil {
		t.Fatal(err)
	}
	doomed := tortureRecord("doomed", 1, vc.Now())
	var ct []byte
	for _, id := range []string{"kept", "doomed"} {
		ver, err := v.PutCtx(ctx, "dr-house", tortureRecord(id, 1, vc.Now()))
		if err != nil {
			t.Fatal(err)
		}
		if id == doomed.ID {
			if ct, _, err = v.Shard(0).ciphertext(ver.Ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	vc.Advance(40 * 365 * 24 * time.Hour)
	if err := v.ShredCtx(ctx, "arch-lee", doomed.ID); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	if err := v.RecordBackedUp("arch-lee", "kept", "tape-1"); !errors.Is(err, faultfs.ErrNoSpace) {
		t.Fatalf("backed-up event with a failing custody write: %v, want ErrNoSpace", err)
	}
	if !v.Shard(0).prov.Wedged() {
		t.Fatal("the failed custody write did not wedge the tracker")
	}
	media := func() map[string][]byte {
		out := map[string][]byte{}
		for p, data := range mem.Dump() {
			if strings.HasPrefix(p, "vault/blocks/") || p == "vault/meta.wal" {
				out[p] = data
			}
		}
		return out
	}
	before := media()
	if _, _, err := v.SanitizeMedia("arch-lee"); !errors.Is(err, provenance.ErrWedged) {
		t.Fatalf("SanitizeMedia on a shard owing custody: %v, want provenance.ErrWedged", err)
	}
	// The pass's own decision is audited in meta.wal, and nothing else.
	if before["vault/meta.wal"] = onlyAuditAppended(t, mem, before["vault/meta.wal"]); before["vault/meta.wal"] == nil {
		t.Fatal("the refused SanitizeMedia wrote meta.wal beyond its audit event")
	}
	if after := media(); !reflect.DeepEqual(after, before) {
		t.Fatal("a refused SanitizeMedia touched the block store or meta.wal")
	}
	if err := v.Close(); !errors.Is(err, provenance.ErrWedged) {
		t.Fatalf("Close of a shard owing custody: %v, want provenance.ErrWedged", err)
	}

	re, _, err := openTorture(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if dropped, _, err := re.SanitizeMedia("arch-lee"); err != nil || dropped != 1 {
		t.Fatalf("SanitizeMedia after reopen: dropped=%d err=%v, want 1 dropped", dropped, err)
	}
	for p, data := range mem.Dump() {
		if bytes.Contains(data, ct) {
			t.Errorf("the shredded ciphertext is still in %s after the pass", p)
		}
	}
	if _, _, err := re.GetCtx(ctx, "dr-house", "kept"); err != nil {
		t.Errorf("live record after the pass: %v", err)
	}
}

// onlyAuditAppended returns the shard's meta.wal on mem if it is before
// followed by standalone audit entries and nothing else: what an audited
// operation that changed nothing writes. Otherwise it returns nil.
func onlyAuditAppended(t *testing.T, mem *faultfs.Mem, before []byte) []byte {
	t.Helper()
	after, err := mem.ReadFile("vault/meta.wal")
	if err != nil {
		t.Fatal(err)
	}
	only := bytes.HasPrefix(after, before)
	valid, _, err := wal.Read(mem, "vault/meta.wal", func(e wal.Entry) error {
		only = only && (e.Off < int64(len(before)) || audit.IsStandalone(e.Data[0]))
		return nil
	})
	if err != nil || valid != int64(len(after)) || !only {
		return nil
	}
	return after
}
