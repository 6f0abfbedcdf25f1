package wal

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"medvault/internal/faultfs"
)

// TestOpenEmptyFile: a zero-byte WAL (created but never written, or fully
// checkpointed before a crash) replays nothing and is immediately usable.
func TestOpenEmptyFile(t *testing.T) {
	mem := faultfs.NewMem()
	if err := mem.WriteFile("w.wal", nil, 0o600); err != nil {
		t.Fatal(err)
	}
	replayed := 0
	l, err := OpenFS(mem, "w.wal", func(Entry) error { replayed++; return nil })
	if err != nil {
		t.Fatalf("OpenFS on empty file: %v", err)
	}
	defer l.Close()
	if replayed != 0 {
		t.Fatalf("replayed %d entries from empty file", replayed)
	}
	if seq, err := l.Append([]byte("first")); err != nil || seq != 0 {
		t.Fatalf("Append on empty-file log: seq=%d err=%v", seq, err)
	}
}

// TestOpenTornFinalRecord: a crash mid-append leaves a partial final frame.
// Open must replay the intact prefix, truncate the torn tail from the file,
// and leave the log appendable.
func TestOpenTornFinalRecord(t *testing.T) {
	full := walBytes(t, []byte("entry zero"), []byte("entry one"), []byte("entry two"))
	torn := full[:len(full)-5] // cut inside the last payload
	mem := faultfs.NewMem()
	if err := mem.WriteFile("w.wal", torn, 0o600); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	l, err := OpenFS(mem, "w.wal", func(e Entry) error {
		got = append(got, append([]byte(nil), e.Data...))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenFS on torn log: %v", err)
	}
	if len(got) != 2 || !bytes.Equal(got[1], []byte("entry one")) {
		t.Fatalf("replayed %d entries, want the 2 intact ones", len(got))
	}
	onDisk, err := mem.ReadFile("w.wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) >= len(torn) {
		t.Fatalf("torn tail not truncated: %d bytes on disk, torn image was %d", len(onDisk), len(torn))
	}
	if seq, err := l.Append([]byte("entry two, retried")); err != nil || seq != 2 {
		t.Fatalf("append after torn-tail truncation: seq=%d err=%v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	count := 0
	l2, err := OpenFS(mem, "w.wal", func(Entry) error { count++; return nil })
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if count != 3 {
		t.Fatalf("reopen replayed %d entries, want 3", count)
	}
}

// TestOpenZeroFilledTail: a filesystem may zero-fill a crashed file's
// tail. Zeros from a frame's start to the end of the file are a torn tail,
// cut on open, and zeros that end the last entry's own frame are part of it.
func TestOpenZeroFilledTail(t *testing.T) {
	entries := [][]byte{[]byte("entry zero"), {'o', 'n', 'e', 0, 0, 0, 0}}
	full := walBytes(t, entries...)
	mem := faultfs.NewMem()
	if err := mem.WriteFile("w.wal", append(bytes.Clone(full), make([]byte, 64)...), 0o600); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	l, err := OpenFS(mem, "w.wal", func(e Entry) error {
		got = append(got, bytes.Clone(e.Data))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenFS on a zero-filled tail: %v", err)
	}
	defer l.Close()
	if len(got) != 2 || !bytes.Equal(got[1], entries[1]) {
		t.Fatalf("replayed %q, want %q", got, entries)
	}
	if onDisk, _ := mem.ReadFile("w.wal"); !bytes.Equal(onDisk, full) {
		t.Fatalf("%d bytes on disk after the cut, want the %d written", len(onDisk), len(full))
	}
}

// TestCheckpointCrashLeavesTmp: power cut at the checkpoint's rename leaves
// wal.log.tmp on disk next to the full log. Recovery must replay the full
// log (the checkpoint never took effect), and the next checkpoint must
// succeed over the stale tmp file.
func TestCheckpointCrashLeavesTmp(t *testing.T) {
	mem := faultfs.NewMem()
	inject := func(op faultfs.Op) *faultfs.Fault {
		// Rename ops report their destination; the checkpoint's rename is
		// the only one targeting the live log path.
		if op.Kind == faultfs.OpRename && strings.HasSuffix(op.Path, "w.wal") {
			return &faultfs.Fault{Crash: true}
		}
		return nil
	}
	fsys := faultfs.NewFaulty(mem, inject)
	l, err := OpenFS(fsys, "w.wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"alpha", "beta"} {
		if _, err := l.Append([]byte(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("Checkpoint under crash injection: %v", err)
	}

	img := mem.CrashImage(faultfs.KeepAll)
	if _, err := img.Stat("w.wal.tmp"); err != nil {
		t.Fatalf("expected stale tmp in crash image: %v", err)
	}
	var got [][]byte
	l2, err := OpenFS(img, "w.wal", func(e Entry) error {
		got = append(got, append([]byte(nil), e.Data...))
		return nil
	})
	if err != nil {
		t.Fatalf("recovery with stale tmp: %v", err)
	}
	defer l2.Close()
	if len(got) != 2 || !bytes.Equal(got[0], []byte("alpha")) || !bytes.Equal(got[1], []byte("beta")) {
		t.Fatalf("recovery lost entries: got %d", len(got))
	}
	if err := l2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint over stale tmp: %v", err)
	}
	if l2.Size() != 0 || l2.NextSeq() != 0 {
		t.Fatalf("post-checkpoint state: size=%d nextSeq=%d", l2.Size(), l2.NextSeq())
	}
	if _, err := img.Stat("w.wal.tmp"); err == nil {
		t.Fatal("stale tmp still present after successful checkpoint")
	}
}
