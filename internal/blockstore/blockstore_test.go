package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
)

// stores returns the store on each disk — the in-memory one and the real
// filesystem — pre-sized with small segments so rotation is exercised.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	file, err := OpenFile(t.TempDir(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	return map[string]Store{
		"memory": NewMemory(1024),
		"file":   file,
	}
}

// frames counts the blocks a Scan of s visits.
func frames(t *testing.T, s Store) int {
	t.Helper()
	n := 0
	if err := s.Scan(func(Ref, []byte) error { n++; return nil }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return n
}

func TestAppendReadRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var refs []Ref
			var want [][]byte
			for i := 0; i < 50; i++ {
				data := bytes.Repeat([]byte{byte(i)}, 1+i*7%300)
				ref, err := s.Append(data)
				if err != nil {
					t.Fatalf("Append %d: %v", i, err)
				}
				refs = append(refs, ref)
				want = append(want, data)
			}
			if n := frames(t, s); n != 50 {
				t.Errorf("%d frames, want 50", n)
			}
			for i, ref := range refs {
				got, err := s.Read(ref)
				if err != nil {
					t.Fatalf("Read %d: %v", i, err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("block %d mismatch", i)
				}
			}
		})
	}
}

func TestScanOrderAndCompleteness(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var want [][]byte
			for i := 0; i < 40; i++ {
				data := []byte(fmt.Sprintf("block-%03d", i))
				if _, err := s.Append(data); err != nil {
					t.Fatal(err)
				}
				want = append(want, data)
			}
			var got [][]byte
			err := s.Scan(func(ref Ref, data []byte) error {
				got = append(got, data)
				return nil
			})
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("scanned %d blocks, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("scan order broken at %d", i)
				}
			}
		})
	}
}

func TestScanEarlyStop(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				if _, err := s.Append([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			stop := errors.New("stop")
			n := 0
			err := s.Scan(func(ref Ref, data []byte) error {
				n++
				if n == 3 {
					return stop
				}
				return nil
			})
			if !errors.Is(err, stop) {
				t.Errorf("Scan returned %v, want stop sentinel", err)
			}
			if n != 3 {
				t.Errorf("callback ran %d times, want 3", n)
			}
		})
	}
}

// TestScanSpanReadsOneStretchOfASegment: ScanSpan gives back, in order and
// as Read does, the blocks of one segment from a ref up to an offset or to
// the segment's end, never one of the next segment; it stops early as Scan
// does, and refuses a span that starts past the committed end.
func TestScanSpanReadsOneStretchOfASegment(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var refs []Ref
			for i := 0; i < 30; i++ { // 100-B blocks in 1 KiB segments: several rotations
				ref, err := s.Append(bytes.Repeat([]byte{byte(i)}, 100))
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, ref)
			}
			span := func(from Ref, to uint64) (got []int) {
				t.Helper()
				if err := s.ScanSpan(from, to, func(ref Ref, data []byte) error {
					i := slices.Index(refs, ref)
					if i < 0 || !bytes.Equal(data, bytes.Repeat([]byte{byte(i)}, 100)) {
						t.Fatalf("block at %v: %d B, not the one appended there", ref, len(data))
					}
					got = append(got, i)
					return nil
				}); err != nil {
					t.Fatalf("ScanSpan(%v, %d): %v", from, to, err)
				}
				return got
			}
			if got := span(refs[1], refs[3].Offset); !reflect.DeepEqual(got, []int{1, 2}) {
				t.Errorf("span to block 3's offset: blocks %v, want [1 2]", got)
			}
			var last []int // block 1's segment, from block 1 to its end
			for i := 1; i < len(refs) && refs[i].Segment == refs[1].Segment; i++ {
				last = append(last, i)
			}
			if got := span(refs[1], math.MaxUint64); !reflect.DeepEqual(got, last) || refs[len(last)+1].Segment == refs[1].Segment {
				t.Errorf("span to the segment's end: blocks %v, want %v", got, last)
			}
			stop := errors.New("stop")
			if err := s.ScanSpan(refs[0], math.MaxUint64, func(Ref, []byte) error { return stop }); !errors.Is(err, stop) {
				t.Errorf("ScanSpan stopped by fn = %v, want its error", err)
			}
			end := refs[len(refs)-1]
			end.Offset += 200
			if err := s.ScanSpan(end, math.MaxUint64, func(Ref, []byte) error { return nil }); !errors.Is(err, ErrNotFound) {
				t.Errorf("ScanSpan past the committed end = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestReadBadRef(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := s.Append([]byte("hello"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Read(Ref{Segment: 99}); !errors.Is(err, ErrNotFound) {
				t.Errorf("bad segment: %v", err)
			}
			if _, err := s.Read(Ref{Segment: ref.Segment, Offset: 1 << 40}); !errors.Is(err, ErrNotFound) {
				t.Errorf("bad offset: %v", err)
			}
			// Offset pointing mid-frame must fail the magic check.
			if _, err := s.Read(Ref{Segment: ref.Segment, Offset: ref.Offset + 1}); err == nil {
				t.Error("mid-frame read succeeded")
			}
		})
	}
}

func TestTooLargeBlock(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Append(make([]byte, 2048)); !errors.Is(err, ErrTooLarge) {
				t.Errorf("oversized block: %v", err)
			}
		})
	}
}

func TestClosedStore(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Append([]byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append([]byte("y")); !errors.Is(err, ErrClosed) {
				t.Errorf("Append after close: %v", err)
			}
			if _, err := s.Read(Ref{}); !errors.Is(err, ErrClosed) {
				t.Errorf("Read after close: %v", err)
			}
			if err := s.Scan(func(Ref, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
				t.Errorf("Scan after close: %v", err)
			}
		})
	}
}

func TestSegmentRotation(t *testing.T) {
	m := NewMemory(128)
	var last Ref
	for i := 0; i < 20; i++ {
		ref, err := m.Append(make([]byte, 50))
		if err != nil {
			t.Fatal(err)
		}
		last = ref
	}
	if segments := last.Segment + 1; segments < 5 {
		t.Errorf("expected rotation into >=5 segments, got %d", segments)
	}
	if n := frames(t, m); n != 20 {
		t.Errorf("%d frames, want 20", n)
	}
}

// TestFileReadsShareOneHandlePerSegment: a read costs two preads, not an
// open and a close around them — each segment is opened read-only once, by
// the first Read that needs it, and a frame appended after that is readable
// through the same handle.
func TestFileReadsShareOneHandlePerSegment(t *testing.T) {
	readOnlyOpens := 0
	fsys := faultfs.NewFaulty(faultfs.NewMem(), func(op faultfs.Op) *faultfs.Fault {
		if op.Kind == faultfs.OpOpen && op.Index < 0 {
			readOnlyOpens++
		}
		return nil
	})
	f, err := OpenFileFS(fsys, "blocks", 256)
	if err != nil {
		t.Fatal(err)
	}
	var refs []Ref
	appendOne := func(i int) {
		ref, err := f.Append(bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	readAll := func() {
		for i, ref := range refs {
			if got, err := f.Read(ref); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 100)) {
				t.Fatalf("Read(%v) = %d bytes, %v", ref, len(got), err)
			}
		}
	}
	for i := 0; i < 5; i++ { // two frames per segment: the third segment is active
		appendOne(i)
	}
	for round := 0; round < 10; round++ {
		readAll()
	}
	appendOne(5) // lands in the already-opened active segment
	readAll()
	if segments := int(refs[len(refs)-1].Segment) + 1; readOnlyOpens != segments {
		t.Errorf("%d read-only opens for %d reads over %d segments, want one per segment", readOnlyOpens, 10*5+6, segments)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(refs[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after Close: %v, want ErrClosed", err)
	}
}

func TestStorageBytesAccountsFraming(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			const n, sz = 10, 30
			for i := 0; i < n; i++ {
				if _, err := s.Append(make([]byte, sz)); err != nil {
					t.Fatal(err)
				}
			}
			want := int64(n * (sz + frame.Var.Overhead()))
			if got := s.StorageBytes(); got != want {
				t.Errorf("StorageBytes = %d, want %d", got, want)
			}
		})
	}
}

func TestFileReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	var refs []Ref
	for i := 0; i < 25; i++ {
		ref, err := f.Append([]byte(fmt.Sprintf("persistent-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(dir, 256)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if n := frames(t, re); n != 25 {
		t.Errorf("recovered %d frames, want 25", n)
	}
	for i, ref := range refs {
		got, err := re.Read(ref)
		if err != nil {
			t.Fatalf("Read %d after reopen: %v", i, err)
		}
		if want := fmt.Sprintf("persistent-%d", i); string(got) != want {
			t.Errorf("block %d = %q, want %q", i, got, want)
		}
	}
	// And appends continue in the right place.
	ref, err := re.Append([]byte("after-reopen"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Read(ref)
	if err != nil || string(got) != "after-reopen" {
		t.Errorf("append after reopen: %q %v", got, err)
	}
}

func TestFileRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := f.Append([]byte(fmt.Sprintf("good-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	// Simulate a crash mid-append: write a partial frame at the tail.
	path := filepath.Join(dir, SegmentName(0))
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write(frame.Var.Append(nil, 0, []byte("torn"))[:3]); err != nil {
		t.Fatal(err)
	}
	file.Close()

	re, err := OpenFile(dir, 4096)
	if err != nil {
		t.Fatalf("recovery with torn tail failed: %v", err)
	}
	defer re.Close()
	if n := frames(t, re); n != 5 {
		t.Errorf("recovered %d blocks, want 5", n)
	}
	// A new append must succeed and be readable.
	ref, err := re.Append([]byte("post-crash"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := re.Read(ref); err != nil || string(got) != "post-crash" {
		t.Errorf("post-crash append: %q %v", got, err)
	}
}

// TestFileRecoveryCutsZeroFilledTail: zeros a filesystem filled a crashed
// segment's tail with are a torn tail, not empty blocks, even after a block
// whose own frame ends in zeros; zeros at the tail of an older segment are
// corruption. Append refuses the empty block zeros would spell.
func TestFileRecoveryCutsZeroFilledTail(t *testing.T) {
	mem := faultfs.NewMem()
	f, err := OpenFileFS(mem, "blocks", 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(nil); !errors.Is(err, errEmpty) {
		t.Fatalf("Append(nil) = %v, want errEmpty", err)
	}
	// The first block fills segment 0; the others end segment 1 in zeros.
	blocks := [][]byte{bytes.Repeat([]byte{'a'}, 56), {'b', 0, 0, 0}, {'c', 0}}
	for _, b := range blocks {
		if _, err := f.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	zeroFill := func(seg int) {
		t.Helper()
		path := filepath.Join("blocks", SegmentName(seg))
		data, err := mem.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.WriteFile(path, append(data, make([]byte, 64)...), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	zeroFill(1)
	re, err := OpenFileFS(mem, "blocks", 64)
	if err != nil {
		t.Fatalf("recovery with a zero-filled tail: %v", err)
	}
	var got [][]byte
	if err := re.Scan(func(_ Ref, p []byte) error { got = append(got, bytes.Clone(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	re.Close()
	if !reflect.DeepEqual(got, blocks) {
		t.Fatalf("recovered %q, want %q", got, blocks)
	}
	zeroFill(0)
	if _, err := OpenFileFS(mem, "blocks", 64); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zeros at the tail of an older segment: %v, want ErrCorrupt", err)
	}
}

// TestFileReadHostileLength flips a frame's on-disk length field to
// 0xFFFFFFFF: Read must answer ErrCorrupt from the length check, not ask the
// allocator for 4 GiB before the CRC is ever looked at (the test binary
// passes under `ulimit -v 4000000`).
func TestFileReadHostileLength(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ref, err := f.Append([]byte("EPHI"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.OpenFile(filepath.Join(dir, SegmentName(0)), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, int64(ref.Offset)); err != nil { // uvarint 0xFFFFFFFF
		t.Fatal(err)
	}
	seg.Close()

	got := leastAlloc(1<<20, func() { _, err = f.Read(ref) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read(hostile length) = %v, want ErrCorrupt", err)
	}
	if got > 1<<20 {
		t.Fatalf("Read(hostile length) allocated %d bytes before rejecting the frame", got)
	}
}

func TestFileDetectsBitRot(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := f.Append(bytes.Repeat([]byte("EPHI"), 20))
	if err != nil {
		t.Fatal(err)
	}
	f.Sync()

	// Flip one payload byte on disk, out-of-band.
	path := filepath.Join(dir, SegmentName(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[frame.Var.Overhead()+3] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	if _, err := f.Read(ref); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit rot not detected: %v", err)
	}
	if err := f.Scan(func(Ref, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Scan missed bit rot: %v", err)
	}
	f.Close()

	// Recovery refuses to resurrect the corrupt block: it truncates at the
	// corruption point (it is the last segment, so this is a torn tail).
	re, err := OpenFile(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := frames(t, re); n != 0 {
		t.Errorf("corrupt block resurrected: %d frames", n)
	}
}

func TestConcurrentAppendRead(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			const writers, per = 8, 30
			var (
				mu   sync.Mutex
				refs []Ref
				wg   sync.WaitGroup
			)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						ref, err := s.Append([]byte(fmt.Sprintf("w%d-i%d", w, i)))
						if err != nil {
							t.Errorf("Append: %v", err)
							return
						}
						mu.Lock()
						refs = append(refs, ref)
						mu.Unlock()
						if _, err := s.Read(ref); err != nil {
							t.Errorf("Read own write: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if n := frames(t, s); n != writers*per {
				t.Errorf("%d frames, want %d", n, writers*per)
			}
			seen := make(map[Ref]bool)
			for _, r := range refs {
				if seen[r] {
					t.Fatalf("duplicate ref %v handed out", r)
				}
				seen[r] = true
			}
		})
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		enc := frame.Var.Append(nil, 0, data)
		_, payload, n, err := frame.Var.Decode(enc)
		header := len(binary.AppendUvarint(nil, uint64(len(data)))) + 4
		return err == nil && n == len(enc) && n == header+len(data) && bytes.Equal(payload, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRefString(t *testing.T) {
	if got := (Ref{Segment: 3, Offset: 42}).String(); got != "3:42" {
		t.Errorf("Ref.String() = %q", got)
	}
}

func TestOpenFileRejectsGappySegments(t *testing.T) {
	dir := t.TempDir()
	// seg-00000000 missing, seg-00000001 present.
	if err := os.WriteFile(filepath.Join(dir, SegmentName(1)), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(dir, 1024); !errors.Is(err, ErrCorrupt) {
		t.Errorf("gappy segment numbering accepted: %v", err)
	}
}

// TestRollThenEmptyBelow: Roll puts the appends after it in a fresh segment
// (none while the active one is empty), and EmptyBelow cuts every older
// segment to zero bytes without renumbering, so a reopen reads the frames
// appended after the roll and nothing before it.
func TestRollThenEmptyBelow(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Roll(); err != nil || n != 0 {
		t.Fatalf("Roll of an empty store = %d, %v; want 0", n, err)
	}
	for i := 0; i < 30; i++ { // 30 × 55 B frames cross a 1 KiB segment
		if _, err := s.Append(bytes.Repeat([]byte{'o'}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := s.Roll()
	if err != nil || fresh != 2 {
		t.Fatalf("Roll = %d, %v; want segment 2", fresh, err)
	}
	kept, err := s.Append([]byte("kept"))
	if err != nil || kept.Segment != fresh {
		t.Fatalf("append after Roll went to %v, %v", kept, err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.EmptyBelow(fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(Ref{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Read into an emptied segment: %v, want ErrNotFound", err)
	}
	if got := s.StorageBytes(); got != int64(len(frame.Var.Append(nil, 0, []byte("kept")))) {
		t.Errorf("StorageBytes after EmptyBelow = %d, want the one kept frame", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= int(fresh); i++ {
		if _, err := os.Stat(filepath.Join(dir, SegmentName(i))); err != nil {
			t.Errorf("segment %d: %v", i, err)
		}
	}
	re, err := OpenFile(dir, 1024)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if n := frames(t, re); n != 1 {
		t.Errorf("reopened store holds %d frames, want 1", n)
	}
	if got, err := re.Read(kept); err != nil || string(got) != "kept" {
		t.Errorf("Read(%v) after reopen = %q, %v", kept, got, err)
	}
}

// TestSyncLeavesReadsAndAppendsFree: one put's fsync must not hold up a
// cache-miss read or the next put's append on the same store. The fsync is
// parked in flight while both complete; it returns once released.
func TestSyncLeavesReadsAndAppendsFree(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	fsys := faultfs.NewFaulty(faultfs.NewMem(), func(op faultfs.Op) *faultfs.Fault {
		if op.Kind == faultfs.OpSync && armed.CompareAndSwap(true, false) {
			close(parked)
			return &faultfs.Fault{Hold: release}
		}
		return nil
	})
	f, err := OpenFileFS(fsys, "blocks", 0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := f.Append([]byte("first put"))
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	synced := make(chan error, 1)
	go func() { synced <- f.Sync() }()
	<-parked

	done := make(chan error, 1)
	go func() {
		if got, err := f.Read(first); err != nil || string(got) != "first put" {
			done <- fmt.Errorf("read during another put's fsync: %q, %v", got, err)
			return
		}
		ref, err := f.Append([]byte("next put"))
		if err != nil {
			done <- fmt.Errorf("append during another put's fsync: %v", err)
			return
		}
		if got, err := f.Read(ref); err != nil || string(got) != "next put" {
			done <- fmt.Errorf("reading the next put back: %q, %v", got, err)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a read and an append on the store waited out another put's fsync")
	}
	select {
	case err := <-synced:
		t.Errorf("the parked fsync returned before it was released: %v", err)
	default:
	}
	close(release)
	if err := <-synced; err != nil {
		t.Errorf("Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAppendReadSyncAcrossRotation is for the race detector: syncs
// run beside appends that rotate segments (closing the handle a sync may be
// using) and beside reads, on both disks. No sync may fail, and after the
// last one every frame survives a power cut.
func TestConcurrentAppendReadSyncAcrossRotation(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			const writers, per = 2, 60
			var (
				mu   sync.Mutex
				refs []Ref
				wg   sync.WaitGroup
			)
			stop := make(chan struct{})
			var helpers sync.WaitGroup
			helpers.Add(2)
			go func() { // a put's fsync, over and over
				defer helpers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := s.Sync(); err != nil {
						t.Errorf("Sync beside rotating appends: %v", err)
						return
					}
				}
			}()
			go func() { // reads of frames already appended
				defer helpers.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					mu.Lock()
					var ref Ref
					ok := len(refs) > 0
					if ok {
						ref = refs[i%len(refs)]
					}
					mu.Unlock()
					if ok {
						if _, err := s.Read(ref); err != nil {
							t.Errorf("Read %v: %v", ref, err)
							return
						}
					}
				}
			}()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						ref, err := s.Append(bytes.Repeat([]byte{byte(w)}, 40+i))
						if err != nil {
							t.Errorf("Append: %v", err)
							return
						}
						if err := s.Sync(); err != nil {
							t.Errorf("Sync after own append: %v", err)
							return
						}
						mu.Lock()
						refs = append(refs, ref)
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			helpers.Wait()
			if segs := refs[len(refs)-1].Segment; segs < 3 {
				t.Fatalf("only %d rotations: the test does not cross segments", segs)
			}
			if n := frames(t, s); n != writers*per {
				t.Errorf("%d frames, want %d", n, writers*per)
			}
		})
	}
}

// TestShortWriteIsTakenBack: an append whose write fails part-way must leave
// no partial frame behind. Before, the next append's Ref pointed at the
// garbage (its block read back as corrupt) and reopening cut the segment
// there, dropping every acknowledged frame after it. When the cut itself
// fails, the store wedges instead of writing after the garbage.
func TestShortWriteIsTakenBack(t *testing.T) {
	mem := faultfs.NewMem()
	var short, failCut atomic.Bool
	fsys := faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		switch {
		case op.Kind == faultfs.OpWrite && short.CompareAndSwap(true, false):
			return &faultfs.Fault{Err: faultfs.ErrNoSpace, ApplyBytes: op.Bytes / 2}
		case op.Kind == faultfs.OpTruncate && failCut.Load():
			return &faultfs.Fault{Err: faultfs.ErrInjected}
		}
		return nil
	})
	f, err := OpenFileFS(fsys, "blocks", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	short.Store(true)
	if _, err := f.Append([]byte("lost to a full disk")); !errors.Is(err, faultfs.ErrNoSpace) {
		t.Fatalf("short write: %v, want ErrNoSpace", err)
	}
	after, err := f.Append([]byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.Read(after); err != nil || string(got) != "after" {
		t.Fatalf("the append after a short write reads back %q, %v", got, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileFS(mem.CrashImage(faultfs.KeepNone), "blocks", 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := re.Scan(func(_ Ref, data []byte) error { got = append(got, string(data)); return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[before after]" {
		t.Errorf("after a crash the medium holds %q, want [before after]", got)
	}

	short.Store(true)
	failCut.Store(true)
	if _, err := f.Append([]byte("lost, and stuck")); !errors.Is(err, faultfs.ErrNoSpace) {
		t.Fatalf("short write with a failing cut: %v, want ErrNoSpace", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.Append([]byte("refused")); !errors.Is(err, ErrWedged) {
			t.Fatalf("append %d after an untaken-back short write: %v, want ErrWedged", i, err)
		}
	}
}

// TestFailedSyncWedges: after a failed fsync the kernel may have dropped the
// pages it could not write, and the next fsync may report success over them,
// so the store believes no later Sync and takes no later append. Reads of
// what it holds go on.
func TestFailedSyncWedges(t *testing.T) {
	f, err := OpenFileFS(faultfs.NewFaulty(faultfs.NewMem(), faultfs.FailNthSync(0, faultfs.ErrInjected)), "blocks", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := f.Append([]byte("unsynced"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, faultfs.ErrInjected) || !errors.Is(err, ErrWedged) {
		t.Fatalf("failed sync: %v, want ErrWedged from the injected error", err)
	}
	for i := 0; i < 2; i++ {
		if err := f.Sync(); !errors.Is(err, ErrWedged) {
			t.Fatalf("sync %d after a failed one: %v, want ErrWedged", i, err)
		}
		if _, err := f.Append([]byte("refused")); !errors.Is(err, ErrWedged) {
			t.Fatalf("append %d after a failed sync: %v, want ErrWedged", i, err)
		}
	}
	if got, err := f.Read(ref); err != nil || string(got) != "unsynced" {
		t.Errorf("read after the wedge: %q, %v", got, err)
	}
}

// BenchmarkFileRead reads one 1 KiB block through File.Read. No cache sits
// in front of a File, so every iteration reads the frame header and then the
// payload from the segment; allocs/op is the read path's allocation budget.
func BenchmarkFileRead(b *testing.B) {
	f, err := OpenFile(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ref, err := f.Append(bytes.Repeat([]byte("EPHI"), 256))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Read(ref); err != nil {
			b.Fatal(err)
		}
	}
}

// parentListSegments is the segment-name rule of the binary before v2
// segments, copied verbatim but for its name: prefix seg-, suffix .blk, and
// a dense number between them.
func parentListSegments(fsys faultfs.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("blockstore: listing %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".blk") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	// Segment numbering must be dense: a missing middle segment means lost data.
	for i, name := range names {
		num, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".blk"))
		if err != nil || num != i {
			return nil, fmt.Errorf("%w: unexpected segment file %s at position %d", ErrCorrupt, name, i)
		}
	}
	return names, nil
}

// TestLegacySegmentsReadThenRolled: a store an older binary wrote, frame.Block
// frames in seg-NNNNNNNN.blk with a torn frame at the tail, opens with the
// torn frame cut and every block readable; its appends go to a v2 segment
// after the legacy ones, and a reopen reads both layouts. The older binary's
// segment-name rule accepts the store before the open and refuses it after,
// as it refuses a store this package started.
func TestLegacySegmentsReadThenRolled(t *testing.T) {
	mem := faultfs.NewMem()
	var seg0, seg1 []byte
	for i := 0; i < 3; i++ {
		seg0 = frame.Block.Append(seg0, 0, []byte(fmt.Sprintf("legacy-%d", i)))
	}
	seg1 = frame.Block.Append(seg1, 0, []byte("legacy-3"))
	seg1 = append(seg1, frame.Block.Append(nil, 0, []byte("torn"))[:7]...)
	for i, seg := range [][]byte{seg0, seg1} {
		if err := mem.WriteFile("s/"+legacySegmentName(i), seg, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := parentListSegments(mem, "s"); err != nil {
		t.Fatalf("the parent's rule refuses its own store: %v", err)
	}
	s, err := OpenFileFS(mem, "s", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Append([]byte("v2-0"))
	if err != nil || ref != (Ref{Segment: 2}) {
		t.Fatalf("first append after the legacy segments = %v, %v; want segment 2 offset 0", ref, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := mem.ReadFile("s/" + legacySegmentName(1)); len(got) != len(frame.Block.Append(nil, 0, []byte("legacy-3"))) {
		t.Errorf("legacy tail segment is %d B after open; want its torn frame cut", len(got))
	}
	if _, err := parentListSegments(mem, "s"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("the parent's rule over a store holding a v2 segment: %v, want ErrCorrupt", err)
	}
	re, err := OpenFileFS(mem, "s", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var got []string
	if err := re.Scan(func(_ Ref, data []byte) error { got = append(got, string(data)); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := "legacy-0 legacy-1 legacy-2 legacy-3 v2-0"; strings.Join(got, " ") != want {
		t.Errorf("reopen scans %q, want %q", got, want)
	}

	fresh := faultfs.NewMem()
	f, err := OpenFileFS(fresh, "s", 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := parentListSegments(fresh, "s"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("the parent's rule over a fresh store: %v, want ErrCorrupt", err)
	}
}

// TestOpenFileRejectsLegacyAfterV2: segments are legacy, then v2; a legacy
// segment numbered after a v2 one is no store this package or its
// predecessor wrote.
func TestOpenFileRejectsLegacyAfterV2(t *testing.T) {
	mem := faultfs.NewMem()
	for name, seg := range map[string][]byte{SegmentName(0): nil, legacySegmentName(1): frame.Block.Append(nil, 0, []byte("x"))} {
		if err := mem.WriteFile("s/"+name, seg, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenFileFS(mem, "s", 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a legacy segment after a v2 one: %v, want ErrCorrupt", err)
	}
}

// leastAlloc is the fewest bytes run allocates over up to three runs: it
// stops at the first run within limit and collects garbage before each
// retry. TotalAlloc is process-wide, so another goroutine's allocations (the
// fuzzing engine's, a parallel test's) can land in one run's window, but
// not in every one.
func leastAlloc(limit uint64, run func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3 && least > limit; i++ {
		if i > 0 {
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
