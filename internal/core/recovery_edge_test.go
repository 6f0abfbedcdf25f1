package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"medvault/internal/faultfs"
)

// putTwo opens a vault over fsys, stores two records, and returns their
// bodies. The vault is left open; callers crash it however they like.
func putTwo(t *testing.T, fsys faultfs.FS) (*Cluster, [2]string) {
	t.Helper()
	v, vc, err := openTorture(fsys, 1)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var bodies [2]string
	for i := 0; i < 2; i++ {
		rec := tortureRecord([]string{"edge-a", "edge-b"}[i], 1, vc.Now())
		if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
			t.Fatalf("Put: %v", err)
		}
		bodies[i] = rec.Body
	}
	return v, bodies
}

// reopenAndCheck mounts img, reopens the vault, and asserts both records
// read back exactly and full verification passes.
func reopenAndCheck(t *testing.T, img *faultfs.Mem, bodies [2]string) {
	t.Helper()
	v, _, err := openTorture(img, 1)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer v.Close()
	for i, id := range []string{"edge-a", "edge-b"} {
		rec, _, err := v.GetVersionCtx(context.Background(), "dr-house", id, 1)
		if err != nil {
			t.Fatalf("GetVersion(%s): %v", id, err)
		}
		if rec.Body != bodies[i] {
			t.Fatalf("%s body mismatch after recovery", id)
		}
	}
	if _, err := v.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll after recovery: %v", err)
	}
}

// TestRecoveryZeroFilledTails: a filesystem may zero-fill a crashed file's
// tail. 64 zero bytes after meta.wal and after the newest segment of each
// block store are torn tails, cut on open; the older binary read the first
// as an empty WAL entry and the audit log's as a corrupt event.
func TestRecoveryZeroFilledTails(t *testing.T) {
	mem := faultfs.NewMem()
	_, bodies := putTwo(t, mem)
	img := mem.CrashImage(faultfs.KeepAll)
	files := []string{"vault/meta.wal"}
	for _, store := range []string{"blocks", "audit", "prov"} {
		names, err := img.ReadDir("vault/" + store)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, "vault/"+store+"/"+names[len(names)-1].Name())
	}
	for _, path := range files {
		data, err := img.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := img.WriteFile(path, append(data, make([]byte, 64)...), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	reopenAndCheck(t, img, bodies)
}

// TestRecoverySnapshotTmpLeftBehind: power cut at the snapshot's rename
// during Close leaves meta.snap.tmp next to an absent (or stale) snapshot.
// Recovery must come up from the WAL alone and ignore the tmp.
func TestRecoverySnapshotTmpLeftBehind(t *testing.T) {
	mem := faultfs.NewMem()
	fsys := faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		if op.Kind == faultfs.OpRename && strings.Contains(op.Path, "meta.snap") {
			return &faultfs.Fault{Crash: true}
		}
		return nil
	})
	v, bodies := putTwo(t, fsys)
	if err := v.Close(); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("Close under crash injection: %v", err)
	}
	img := mem.CrashImage(faultfs.KeepAll)
	if _, err := img.Stat("vault/meta.snap.tmp"); err != nil {
		t.Fatalf("expected stale snapshot tmp in crash image: %v", err)
	}
	if _, err := img.Stat("vault/meta.snap"); err == nil {
		t.Fatal("snapshot rename should not have completed")
	}
	reopenAndCheck(t, img, bodies)
}

// TestDoubleRecoveryAfterSnapshotWithoutCheckpoint: power cut between the
// snapshot rename and the WAL checkpoint leaves a fresh snapshot AND a full
// WAL — every entry the snapshot already covers gets replayed over it.
// Replay must be idempotent, and a second close/reopen cycle (which writes
// its own snapshot) must land in the same state.
func TestDoubleRecoveryAfterSnapshotWithoutCheckpoint(t *testing.T) {
	mem := faultfs.NewMem()
	fsys := faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		if op.Kind == faultfs.OpRename && strings.Contains(op.Path, "meta.wal") {
			return &faultfs.Fault{Crash: true}
		}
		return nil
	})
	v, bodies := putTwo(t, fsys)
	if err := v.Close(); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("Close under crash injection: %v", err)
	}
	img := mem.CrashImage(faultfs.KeepAll)
	if _, err := img.Stat("vault/meta.snap"); err != nil {
		t.Fatalf("snapshot should be in place: %v", err)
	}
	if st, err := img.Stat("vault/meta.wal"); err != nil || st.Size() == 0 {
		t.Fatalf("WAL should still hold the un-checkpointed entries: %v", err)
	}
	// First recovery replays the WAL over the snapshot; second recovery
	// proves the first one converged (clean Close inside reopenAndCheck,
	// then reopen and re-verify).
	reopenAndCheck(t, img, bodies)
	reopenAndCheck(t, img, bodies)
}

// TestRecoveryEmptyWAL: a vault that crashed right after its stores were
// created — WAL file present but empty, no snapshot — opens as an empty
// vault rather than failing.
func TestRecoveryEmptyWAL(t *testing.T) {
	mem := faultfs.NewMem()
	v, _, err := openTorture(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v2, _, err := openTorture(mem, 1)
	if err != nil {
		t.Fatalf("reopen of empty vault: %v", err)
	}
	defer v2.Close()
	if n := v2.Len(); n != 0 {
		t.Fatalf("empty vault has %d records", n)
	}
	if _, err := v2.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll on empty vault: %v", err)
	}
}
