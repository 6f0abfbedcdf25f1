package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
)

// layoutSeeds are images around the layout marker, with the entries OpenFS
// must replay from each, or -1 where it must refuse the file.
func layoutSeeds() []struct {
	name    string
	data    []byte
	entries int
} {
	marker := frame.Seq.Append(nil, 0, layoutMarker)
	vars := frame.Var.Append(frame.Var.Append(nil, 0, []byte("first entry")), 0, []byte("second entry"))
	legacy := frame.Seq.Append(frame.Seq.Append(nil, 0, []byte("legacy zero")), 1, []byte("legacy one"))
	return []struct {
		name    string
		data    []byte
		entries int
	}{
		{"marker only", marker, 0},
		{"marker and a torn Var frame", append(bytes.Clone(marker), vars[:6]...), 0},
		{"marker and Var frames", append(bytes.Clone(marker), vars...), 2},
		{"legacy entries, then the marker and Var frames", append(append(bytes.Clone(legacy), frame.Seq.Append(nil, 2, layoutMarker)...), vars...), 4},
		{"marker, Var frames and a zero-filled tail", append(append(bytes.Clone(marker), vars...), make([]byte, 64)...), 2},
		{"marker and a zero-filled tail", append(bytes.Clone(marker), make([]byte, 5)...), 0},
		{"legacy entries and a zero-filled tail", append(bytes.Clone(legacy), make([]byte, 64)...), 2},
		{"Var frames with no marker", vars, -1},
		{"legacy entries, then Var frames with no marker", append(bytes.Clone(legacy), vars...), -1},
	}
}

// TestOpenLayoutSeeds: OpenFS replays each layout seed's entries, and
// refuses Var frames no marker announces instead of cutting them away as a
// torn tail; a refused file is left as it was.
func TestOpenLayoutSeeds(t *testing.T) {
	for _, seed := range layoutSeeds() {
		mem := faultfs.NewMem()
		if err := mem.WriteFile("w.wal", seed.data, 0o600); err != nil {
			t.Fatal(err)
		}
		n := 0
		l, err := OpenFS(mem, "w.wal", func(Entry) error { n++; return nil })
		if seed.entries < 0 {
			after, _ := mem.ReadFile("w.wal")
			if !errors.Is(err, ErrCorrupt) || !bytes.Equal(after, seed.data) {
				t.Errorf("%s: OpenFS = %v and %d of %d bytes left; want ErrCorrupt and the file untouched", seed.name, err, len(after), len(seed.data))
			}
			continue
		}
		if err != nil || n != seed.entries {
			t.Errorf("%s: OpenFS replayed %d entries, %v; want %d", seed.name, n, err, seed.entries)
			continue
		}
		l.Close()
	}
}

// parentKinds are the first bytes the older binary's replay accepts: its
// decodeWALEntry (internal/core) refuses an entry opening with any other.
const parentKinds = "picvVHsSR"

// parentOpen is the older binary's OpenFS, copied but for its name and the
// replay it runs: frame.Seq frames with the sequence check, each entry's
// kind byte through that replay, and the torn tail cut only when every entry
// before it replayed.
func parentOpen(fsys faultfs.FS, path string) error {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return err
	}
	var next uint64
	var refused error
	n, _ := frame.Seq.Walk(data, func(off int, seq uint64, payload []byte) error {
		if seq != next {
			refused = fmt.Errorf("%w: sequence gap at offset %d: got %d, want %d", ErrCorrupt, off, seq, next)
		} else if len(payload) == 0 || !bytes.ContainsRune([]byte(parentKinds), rune(payload[0])) {
			refused = fmt.Errorf("wal: replaying entry %d: unknown WAL entry kind", seq)
		}
		next++
		return refused
	})
	if refused != nil {
		return refused
	}
	if n < len(data) {
		return fsys.Truncate(path, int64(n))
	}
	return nil
}

// TestParentOpenRefusesV2: the older binary's open fails on a log this
// package wrote, with the layout marker at offset 0 and with it after the
// entries the older binary wrote (core's fixture meta.wal, appended to
// here), and leaves the file byte-identical rather than cutting the Var
// frames away as a torn tail. Its own log it opens.
func TestParentOpenRefusesV2(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("..", "core", "testdata", "parent-single-vault", "meta.wal"))
	if err != nil {
		t.Fatal(err)
	}
	mem := faultfs.NewMem()
	if err := mem.WriteFile("legacy.wal", legacy, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := parentOpen(mem, "legacy.wal"); err != nil {
		t.Fatalf("the older binary's open of its own log: %v", err)
	}
	for _, path := range []string{"fresh.wal", "legacy.wal"} {
		l, err := OpenFS(mem, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []string{"p a create", "c a correction"} {
			if _, err := l.Append([]byte(e)); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		before, _ := mem.ReadFile(path)
		if err := parentOpen(mem, path); err == nil {
			t.Errorf("%s: the older binary opened a log with Var frames", path)
		}
		if after, _ := mem.ReadFile(path); !bytes.Equal(after, before) {
			t.Errorf("%s: the older binary left %d B of %d", path, len(after), len(before))
		}
	}
}
