package faultfs

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"testing"
)

func TestMemBasicReadWrite(t *testing.T) {
	m := NewMem()
	h, err := m.OpenFile("dir/a.log", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := h.Write([]byte("hello ")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := h.Write([]byte("world")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := m.ReadFile("dir/a.log")
	if err != nil || string(got) != "hello world" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	buf := make([]byte, 5)
	if n, err := h.ReadAt(buf, 6); err != nil || n != 5 || string(buf) != "world" {
		t.Fatalf("ReadAt = %q, %d, %v", buf, n, err)
	}
	if _, err := m.ReadFile("dir/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: want ErrNotExist, got %v", err)
	}
	if _, err := m.OpenFile("dir/a.log", os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("O_EXCL on existing: want ErrExist, got %v", err)
	}
}

func TestMemCrashDropsUnsyncedTail(t *testing.T) {
	m := NewMem()
	h, _ := m.OpenFile("wal", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	h.Write([]byte("durable|"))
	if err := h.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	h.Write([]byte("pending"))

	for _, tc := range []struct {
		name string
		keep KeepPolicy
		want string
	}{
		{"KeepNone", KeepNone, "durable|"},
		{"KeepAll", KeepAll, "durable|pending"},
		{"KeepHalf", KeepHalf, "durable|pen"},
	} {
		img := m.CrashImage(tc.keep)
		got, err := img.ReadFile("wal")
		if err != nil || string(got) != tc.want {
			t.Errorf("%s: image = %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
	// The original is untouched by imaging.
	if got, _ := m.ReadFile("wal"); string(got) != "durable|pending" {
		t.Fatalf("original mutated by CrashImage: %q", got)
	}
}

func TestMemWriteFileNotDurableUntilSync(t *testing.T) {
	m := NewMem()
	h, _ := m.OpenFile("snap", os.O_WRONLY|os.O_CREATE, 0o600)
	h.Write([]byte("v1"))
	h.Sync()
	// Rewrite in place without sync: crash reverts to v1.
	if err := m.WriteFile("snap", []byte("v2-much-longer"), 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	img := m.CrashImage(KeepAll)
	if got, _ := img.ReadFile("snap"); string(got) != "v1" {
		t.Fatalf("unsynced rewrite survived crash: %q", got)
	}
}

func TestMemRefusesDirectoryRename(t *testing.T) {
	m := NewMem()
	if err := m.WriteFile("blocks/a.seg", []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("blocks", "blocks.old"); err == nil {
		t.Fatal("renaming a directory succeeded")
	}
	if got, err := m.ReadFile("blocks/a.seg"); err != nil || string(got) != "x" {
		t.Fatalf("refused rename moved the directory's file: %q, %v", got, err)
	}
}

func TestMemRenameFollowsOpenHandle(t *testing.T) {
	// The WAL checkpoint writes a tmp, renames it over the live path, and
	// keeps writing through the tmp handle. The handle must follow the inode.
	m := NewMem()
	h, _ := m.OpenFile("wal.tmp", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	h.Write([]byte("ckpt"))
	h.Sync()
	if err := m.Rename("wal.tmp", "wal"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	h.Write([]byte("+more"))
	h.Sync()
	if got, _ := m.ReadFile("wal"); string(got) != "ckpt+more" {
		t.Fatalf("post-rename write lost: %q", got)
	}
	if _, err := m.ReadFile("wal.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("old name still present: %v", err)
	}
	// Rename is a namespace op: durable immediately, including synced bytes.
	img := m.CrashImage(KeepNone)
	if got, _ := img.ReadFile("wal"); string(got) != "ckpt+more" {
		t.Fatalf("rename or synced content lost on crash: %q", got)
	}
}

func TestMemReadDirAndStat(t *testing.T) {
	m := NewMem()
	m.MkdirAll("d/sub", 0o700)
	m.WriteFile("d/b.blk", []byte("bb"), 0o600)
	m.WriteFile("d/a.blk", []byte("a"), 0o600)
	ents, err := m.ReadDir("d")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := []string{"a.blk", "b.blk", "sub"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Fatalf("ReadDir names = %v, want %v", names, want)
	}
	fi, err := m.Stat("d/b.blk")
	if err != nil || fi.Size() != 2 || fi.IsDir() {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
	if fi, err := m.Stat("d/sub"); err != nil || !fi.IsDir() {
		t.Fatalf("Stat dir = %+v, %v", fi, err)
	}
}

func TestMemTruncateIsDurable(t *testing.T) {
	m := NewMem()
	h, _ := m.OpenFile("f", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	h.Write([]byte("0123456789"))
	h.Sync()
	if err := m.Truncate("f", 4); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	img := m.CrashImage(KeepNone)
	if got, _ := img.ReadFile("f"); string(got) != "0123" {
		t.Fatalf("truncate not durable: %q", got)
	}
	// Appends after truncation extend the shorter file.
	h.Write([]byte("ab"))
	if got, _ := m.ReadFile("f"); string(got) != "0123ab" {
		t.Fatalf("append after truncate: %q", got)
	}
}

// TestMemSyncedPrefixIsNeverRewritten guards Sync's shared prefix: after a
// Sync, no later handle Write, Truncate or WriteFile may reach the bytes the
// durable layer shares with the page cache, so the crash image keeps exactly
// what the last durable act left.
func TestMemSyncedPrefixIsNeverRewritten(t *testing.T) {
	for _, tc := range []struct {
		name  string
		after func(m *Mem, h File)
		want  string
	}{
		{"write", func(m *Mem, h File) { h.Write([]byte("XYZ")) }, "0123456789"},
		{"truncate shrink", func(m *Mem, h File) {
			m.Truncate("f", 4)
			h.Write([]byte("XYZXYZXYZ"))
		}, "0123"},
		{"truncate grow", func(m *Mem, h File) {
			m.Truncate("f", 12)
			h.Write([]byte("XYZ"))
		}, "0123456789\x00\x00"},
		{"write file", func(m *Mem, h File) {
			m.WriteFile("f", []byte("ab"), 0o600)
			h.Write([]byte("XYZXYZXYZXYZ"))
		}, "0123456789"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMem()
			h, _ := m.OpenFile("f", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
			h.Write([]byte("01234"))
			h.Write([]byte("56789")) // leaves spare capacity past the synced length
			if err := h.Sync(); err != nil {
				t.Fatal(err)
			}
			tc.after(m, h)
			if got, _ := m.CrashImage(KeepNone).ReadFile("f"); string(got) != tc.want {
				t.Fatalf("crash image = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestFaultyCountsMutatingOps(t *testing.T) {
	f := NewFaulty(NewMem(), nil)
	h, _ := f.OpenFile("x", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600) // 0
	h.Write([]byte("a"))                                                // 1
	h.Sync()                                                            // 2
	buf := make([]byte, 1)
	h.ReadAt(buf, 0) // reads are not injection points
	f.ReadFile("x")
	f.Rename("x", "y") // 3
	if got := f.MutatingOps(); got != 4 {
		t.Fatalf("MutatingOps = %d, want 4", got)
	}
	// Read-only opens are not counted either.
	if _, err := f.OpenFile("y", os.O_RDONLY, 0); err != nil {
		t.Fatalf("ro open: %v", err)
	}
	if got := f.MutatingOps(); got != 4 {
		t.Fatalf("MutatingOps after RO open = %d, want 4", got)
	}
}

func TestFaultyErrInjection(t *testing.T) {
	f := NewFaulty(NewMem(), FailNthSync(1, ErrInjected))
	h, _ := f.OpenFile("x", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	h.Write([]byte("a"))
	if err := h.Sync(); err != nil {
		t.Fatalf("first sync should pass: %v", err)
	}
	if err := h.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("second sync: want ErrInjected, got %v", err)
	}
	if err := h.Sync(); err != nil {
		t.Fatalf("third sync should pass: %v", err)
	}
	if f.Crashed() {
		t.Fatal("error injection must not latch the crash flag")
	}
}

func TestFaultyCrashLatches(t *testing.T) {
	mem := NewMem()
	f := NewFaulty(mem, CrashBefore(2))
	h, err := f.OpenFile("x", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600) // op 0
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := h.Write([]byte("a")); err != nil { // op 1
		t.Fatalf("write: %v", err)
	}
	if err := h.Sync(); !errors.Is(err, ErrCrashed) { // op 2: crash instead
		t.Fatalf("sync: want ErrCrashed, got %v", err)
	}
	if _, err := h.Write([]byte("b")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: want ErrCrashed, got %v", err)
	}
	if _, err := f.ReadFile("x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: want ErrCrashed, got %v", err)
	}
	if !f.Crashed() {
		t.Fatal("Crashed() = false after crash")
	}
	// The sync never ran, so nothing is durable.
	img := mem.CrashImage(KeepNone)
	if got, _ := img.ReadFile("x"); len(got) != 0 {
		t.Fatalf("unsynced bytes durable after crash-before-sync: %q", got)
	}
}

func TestFaultyTornWrite(t *testing.T) {
	mem := NewMem()
	f := NewFaulty(mem, TornWriteAt(1))
	h, _ := f.OpenFile("x", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600) // op 0
	if _, err := h.Write([]byte("0123456789")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write: want ErrCrashed, got %v", err)
	}
	// Half the payload reached the page cache; KeepAll keeps the torn half.
	img := mem.CrashImage(KeepAll)
	if got, _ := img.ReadFile("x"); string(got) != "01234" {
		t.Fatalf("torn tail = %q, want %q", got, "01234")
	}
	if got, _ := mem.CrashImage(KeepNone).ReadFile("x"); len(got) != 0 {
		t.Fatalf("KeepNone kept unsynced torn bytes: %q", got)
	}
}

func TestFaultyCrashAfter(t *testing.T) {
	mem := NewMem()
	f := NewFaulty(mem, CrashAfter(2))
	h, _ := f.OpenFile("x", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600) // 0
	h.Write([]byte("abc"))                                              // 1
	if err := h.Sync(); !errors.Is(err, ErrCrashed) {                   // 2: runs, then cut
		t.Fatalf("sync: want ErrCrashed, got %v", err)
	}
	img := mem.CrashImage(KeepNone)
	if got, _ := img.ReadFile("x"); string(got) != "abc" {
		t.Fatalf("crash-after-sync lost synced bytes: %q", got)
	}
}

func TestFaultyBitRotOnRead(t *testing.T) {
	mem := NewMem()
	mem.WriteFile("x", []byte("payload-bytes"), 0o600)
	corrupted := false // only the first read rots
	f := NewFaulty(mem, func(op Op) *Fault {
		if op.Kind != OpRead || corrupted {
			return nil
		}
		corrupted = true
		return &Fault{CorruptRead: true}
	})
	got, err := f.ReadFile("x")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if bytes.Equal(got, []byte("payload-bytes")) {
		t.Fatal("read returned clean data despite bit-rot injection")
	}
	// Exactly one bit differs.
	diff := 0
	for i := range got {
		b := got[i] ^ []byte("payload-bytes")[i]
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bits, want 1", diff)
	}
	// Second read is clean: bit rot hit the returned copy, not the medium —
	// detection, not persistence, is what is under test.
	if got, _ := f.ReadFile("x"); !bytes.Equal(got, []byte("payload-bytes")) {
		t.Fatalf("second read not clean: %q", got)
	}
}

func TestFaultyENOSPC(t *testing.T) {
	f := NewFaulty(NewMem(), func(op Op) *Fault {
		if op.Kind == OpWrite {
			return &Fault{Err: ErrNoSpace}
		}
		return nil
	})
	h, _ := f.OpenFile("x", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if _, err := h.Write([]byte("a")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write: want ErrNoSpace, got %v", err)
	}
}

func TestOSImplementsFS(t *testing.T) {
	dir := t.TempDir()
	var fsys FS = OS{}
	h, err := fsys.OpenFile(dir+"/f", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := h.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := h.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got, err := fsys.ReadFile(dir + "/f"); err != nil || string(got) != "x" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
}
