package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
)

// File is a Store backed by segment files in a directory. Segments are named
// seg-00000000.v2.blk, seg-00000001.v2.blk, ... and are only ever appended
// to; rotation happens when a segment would exceed its capacity. Reopening a
// directory recovers the store by scanning existing segments, truncating a
// torn trailing frame in the newest segment (the only place one can occur).
//
// An older binary wrote frame.Block frames to segments named without the
// .v2, whose numbering the v2 segments continue. A store that holds any
// refuses to open in that binary, which would otherwise read the first Var
// frame after its segments as a torn tail and cut it away. Legacy segments
// are read, never appended to: opening a store whose newest segment is one
// rolls to a v2 segment.
type File struct {
	mu      sync.RWMutex
	fs      faultfs.FS
	dir     string
	segCap  int
	active  faultfs.File // newest segment, opened for append
	sizes   []int64      // committed byte length per segment
	varFrom int          // segments below it are legacy frame.Block segments
	closed  bool
	wedged  error // set by a failed fsync, or a failed append that could not be taken back (ErrWedged)

	// syncMu orders the fsyncs, which run outside mu: one at a time, as
	// when mu covered them, because two fsyncs of one file in flight cost
	// more than the same two back to back.
	syncMu sync.Mutex

	// One read-only handle per segment, opened by the first Read that needs
	// it and closed by Close; readMu orders the readers that hold only mu's
	// read side.
	readMu  sync.Mutex
	readers []faultfs.File
}

var _ Store = (*File)(nil)

var (
	// errZeroTail stops recovery's walk at a run of zeros that reaches the end.
	errZeroTail = errors.New("blockstore: zero-filled tail")
	// errEmpty refuses an empty block, whose frame zeros would spell.
	errEmpty = errors.New("blockstore: empty block")
)

// OpenFile opens (or creates) a file-backed store in dir on the real
// filesystem. segCap is the segment capacity in bytes (0 means 64 MiB).
func OpenFile(dir string, segCap int) (*File, error) {
	return OpenFileFS(faultfs.OS{}, dir, segCap)
}

// NewMemory returns a store on a private in-memory disk, with the given
// segment capacity in bytes (0 means 4 MiB).
func NewMemory(segCap int) *File {
	if segCap <= 0 {
		segCap = 4 << 20
	}
	f, err := OpenFileFS(faultfs.NewMem(), "blocks", segCap)
	if err != nil {
		panic(err) // a fresh in-memory disk has nothing to fail on
	}
	return f
}

// OpenFileFS is OpenFile over an explicit filesystem — the seam the
// fault-injection and crash-simulation tests use.
func OpenFileFS(fsys faultfs.FS, dir string, segCap int) (*File, error) {
	if segCap <= 0 {
		segCap = 64 << 20
	}
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("blockstore: creating %s: %w", dir, err)
	}
	f := &File{fs: fsys, dir: dir, segCap: segCap}
	if err := f.recover(); err != nil {
		return nil, err
	}
	return f, nil
}

// SegmentName is the file name of segment n of a store this package writes.
func SegmentName(n int) string { return fmt.Sprintf("seg-%08d.v2.blk", n) }

func legacySegmentName(n int) string { return fmt.Sprintf("seg-%08d.blk", n) }

// path is segment i's file.
func (f *File) path(i int) string {
	if i < f.varFrom {
		return filepath.Join(f.dir, legacySegmentName(i))
	}
	return filepath.Join(f.dir, SegmentName(i))
}

// format is segment i's frame.
func (f *File) format(i int) frame.Format {
	if i < f.varFrom {
		return frame.Block
	}
	return frame.Var
}

// recover scans existing segments, validating frames and truncating a torn
// tail on the newest segment, and rolls a legacy newest segment.
func (f *File) recover() error {
	names, varFrom, err := listSegments(f.fs, f.dir)
	if err != nil {
		return err
	}
	f.varFrom = varFrom
	if len(names) == 0 {
		return f.openSegment(0)
	}
	f.sizes = make([]int64, len(names))
	for i, name := range names {
		path := filepath.Join(f.dir, name)
		data, err := f.fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("blockstore: recovering %s: %w", name, err)
		}
		// A filesystem may zero-fill a crashed file's tail, and zeros from a
		// frame's start to the end decode as empty Var frames, which Append
		// never writes: a torn tail.
		zeros := len(bytes.TrimRight(data, "\x00"))
		valid, err := f.format(i).Walk(data, func(off int, _ uint64, _ []byte) error {
			if off >= zeros {
				return errZeroTail
			}
			return nil
		})
		if err != nil {
			if i != len(names)-1 {
				// Torn frames may only exist at the very end of the log.
				return fmt.Errorf("%w: segment %s offset %d: %v", ErrCorrupt, name, valid, err)
			}
			if err := f.fs.Truncate(path, int64(valid)); err != nil {
				return fmt.Errorf("blockstore: truncating torn tail of %s: %w", name, err)
			}
		}
		f.sizes[i] = int64(valid)
	}
	last := len(names) - 1
	active, err := f.fs.OpenFile(f.path(last), os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("blockstore: opening active segment: %w", err)
	}
	f.active = active
	if last < f.varFrom {
		return f.rotate()
	}
	return nil
}

// listSegments returns the segment files in dir in order, and the position
// of the first v2 one (len(names) when there is none).
func listSegments(fsys faultfs.FS, dir string) (names []string, varFrom int, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("blockstore: listing %s: %w", dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".blk") {
			names = append(names, e.Name())
		}
	}
	// Numbering must be dense, a missing middle segment being lost data,
	// and no legacy segment may follow a v2 one.
	sort.Strings(names)
	varFrom = len(names)
	for i, name := range names {
		num, v2 := strings.CutSuffix(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".blk"), ".v2")
		n, err := strconv.Atoi(num)
		if v2 && varFrom == len(names) {
			varFrom = i
		}
		if err != nil || n != i || v2 != (i >= varFrom) {
			return nil, 0, fmt.Errorf("%w: unexpected segment file %s at position %d", ErrCorrupt, name, i)
		}
	}
	return names, varFrom, nil
}

// openSegment creates segment i, a v2 one, as the active segment.
func (f *File) openSegment(i int) error {
	file, err := f.fs.OpenFile(filepath.Join(f.dir, SegmentName(i)), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("blockstore: creating segment %d: %w", i, err)
	}
	f.active = file
	f.sizes = append(f.sizes, 0)
	return nil
}

// Append implements Store.
func (f *File) Append(data []byte) (Ref, error) {
	start := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return Ref{}, ErrClosed
	}
	if f.wedged != nil {
		return Ref{}, f.wedged
	}
	if len(data) == 0 {
		return Ref{}, errEmpty
	}
	buf := frame.Var.Append(nil, 0, data)
	if len(buf) > f.segCap {
		return Ref{}, fmt.Errorf("%w: %d > %d", ErrTooLarge, len(buf), f.segCap)
	}
	cur := len(f.sizes) - 1
	if f.sizes[cur]+int64(len(buf)) > int64(f.segCap) {
		if err := f.rotate(); err != nil {
			return Ref{}, err
		}
		cur++
	}
	ref := Ref{Segment: uint32(cur), Offset: uint64(f.sizes[cur])}
	if n, err := f.active.Write(buf); err != nil {
		if n > 0 {
			f.takeBack(cur)
		}
		return Ref{}, fmt.Errorf("blockstore: appending %d bytes: %w", len(buf), err)
	}
	f.sizes[cur] += int64(len(buf))
	fileMetrics.appends.Inc()
	fileMetrics.appendBytes.Add(uint64(len(buf)))
	fileMetrics.appendSeconds.ObserveSince(start)
	return ref, nil
}

// rotate closes the active segment and opens the next one. A rotated-away
// segment is never written again, so this is the last chance to make its
// tail durable; close without sync would leave the frozen segment's recent
// frames at the mercy of the page cache. The caller holds f.mu exclusively.
func (f *File) rotate() error {
	cur := len(f.sizes) - 1
	if err := f.active.Sync(); err != nil {
		return f.wedge(fmt.Errorf("syncing full segment %d: %w", cur, err))
	}
	if err := f.active.Close(); err != nil {
		return fmt.Errorf("blockstore: closing full segment: %w", err)
	}
	return f.openSegment(cur + 1)
}

// Roll starts a new segment for the appends that follow, unless the active
// one is still empty, and returns the number of the segment they go to:
// every frame appended before the call sits below it.
func (f *File) Roll() (uint32, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch cur := len(f.sizes) - 1; {
	case f.closed:
		return 0, ErrClosed
	case f.wedged != nil:
		return 0, f.wedged
	case f.sizes[cur] == 0:
		return uint32(cur), nil
	}
	if err := f.rotate(); err != nil {
		return 0, err
	}
	return uint32(len(f.sizes) - 1), nil
}

// EmptyBelow cuts every segment numbered below n to zero bytes, taking their
// frames off the medium; no Ref into them resolves after. The files stay, so
// segment numbering stays dense, and the active segment is never cut.
func (f *File) EmptyBelow(n uint32) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	for i := 0; i < int(n) && i < len(f.sizes)-1; i++ {
		if f.sizes[i] == 0 {
			continue
		}
		if err := f.fs.Truncate(f.path(i), 0); err != nil {
			return fmt.Errorf("blockstore: emptying segment %d: %w", i, err)
		}
		f.sizes[i] = 0
	}
	return nil
}

// wedge makes err the store's last word: after a failed fsync a later one can
// succeed over dropped pages, and after an append that could not be taken
// back garbage sits past the committed end. The caller holds f.mu exclusively.
func (f *File) wedge(err error) error {
	f.wedged = fmt.Errorf("%w: %w", ErrWedged, err)
	return f.wedged
}

// takeBack cuts segment cur back to its committed end after a write that
// failed part-way. The partial frame would otherwise sit where the next
// append's Ref points, and reopening would cut the segment there, dropping
// every frame appended after it. When the cut fails the store wedges. The
// caller holds f.mu exclusively.
func (f *File) takeBack(cur int) {
	if err := f.fs.Truncate(f.path(cur), f.sizes[cur]); err != nil {
		f.wedge(fmt.Errorf("segment %d holds a partial frame past offset %d: %w", cur, f.sizes[cur], err))
	}
}

// Read implements Store.
func (f *File) Read(ref Ref) ([]byte, error) {
	start := time.Now()
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return nil, ErrClosed
	}
	if int(ref.Segment) >= len(f.sizes) {
		return nil, fmt.Errorf("%w: segment %d", ErrNotFound, ref.Segment)
	}
	if int64(ref.Offset) >= f.sizes[ref.Segment] {
		return nil, fmt.Errorf("%w: offset %d beyond committed %d", ErrNotFound, ref.Offset, f.sizes[ref.Segment])
	}
	file, err := f.reader(int(ref.Segment))
	if err != nil {
		return nil, err
	}
	_, payload, err := f.format(int(ref.Segment)).ReadAt(file, int64(ref.Offset), f.sizes[ref.Segment])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	fileMetrics.reads.Inc()
	fileMetrics.readBytes.Add(uint64(len(payload)))
	fileMetrics.readSeconds.ObserveSince(start)
	return payload, nil
}

// ScanSpan implements Store.
func (f *File) ScanSpan(from Ref, to uint64, fn func(ref Ref, data []byte) error) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrClosed
	}
	if int(from.Segment) >= len(f.sizes) {
		return fmt.Errorf("%w: segment %d", ErrNotFound, from.Segment)
	}
	end := min(to, uint64(f.sizes[from.Segment]))
	if from.Offset >= end {
		return fmt.Errorf("%w: span [%d, %d) of committed %d", ErrNotFound, from.Offset, to, f.sizes[from.Segment])
	}
	file, err := f.reader(int(from.Segment))
	if err != nil {
		return err
	}
	span := make([]byte, end-from.Offset)
	if _, err := file.ReadAt(span, int64(from.Offset)); err != nil {
		return fmt.Errorf("blockstore: reading segment %d: %w", from.Segment, err)
	}
	return f.walk(from, span, fn)
}

// walk calls fn with each block framed in span, the bytes of from's segment
// from from on, until fn fails; a bad frame is ErrCorrupt.
func (f *File) walk(from Ref, span []byte, fn func(ref Ref, data []byte) error) error {
	var stopped error // fn's error, as opposed to a bad frame
	valid, err := f.format(int(from.Segment)).Walk(span, func(off int, _ uint64, payload []byte) error {
		stopped = fn(Ref{Segment: from.Segment, Offset: from.Offset + uint64(off)}, payload)
		return stopped
	})
	if stopped != nil {
		return stopped
	}
	if err != nil {
		return fmt.Errorf("segment %d offset %d: %w: %v", from.Segment, from.Offset+uint64(valid), ErrCorrupt, err)
	}
	return nil
}

// reader returns segment i's shared read-only handle, opening it on first
// use. The caller holds f.mu (either side) and has checked i < len(f.sizes).
func (f *File) reader(i int) (faultfs.File, error) {
	f.readMu.Lock()
	defer f.readMu.Unlock()
	for len(f.readers) <= i {
		f.readers = append(f.readers, nil)
	}
	if f.readers[i] == nil {
		file, err := f.fs.OpenFile(f.path(i), os.O_RDONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("blockstore: opening segment %d: %w", i, err)
		}
		f.readers[i] = file
	}
	return f.readers[i], nil
}

// Scan implements Store.
func (f *File) Scan(fn func(ref Ref, data []byte) error) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrClosed
	}
	for si := range f.sizes {
		data, err := f.fs.ReadFile(f.path(si))
		if err != nil {
			return fmt.Errorf("blockstore: scanning segment %d: %w", si, err)
		}
		// Scan only the committed prefix; an in-flight append past it is
		// not yet visible.
		if int64(len(data)) > f.sizes[si] {
			data = data[:f.sizes[si]]
		}
		if err := f.walk(Ref{Segment: uint32(si)}, data, func(ref Ref, payload []byte) error {
			return fn(ref, bytes.Clone(payload))
		}); err != nil {
			return err
		}
	}
	return nil
}

// StorageBytes implements Store.
func (f *File) StorageBytes() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var total int64
	for _, s := range f.sizes {
		total += s
	}
	return total
}

// Sync implements Store. It returns once every frame appended before the
// call is durable: those frames are in the active segment it fsyncs, or in a
// segment that rotation fsynced before closing it. The fsync runs outside
// f.mu, so reads and the next appends go on while it is in flight; if it
// fails, it wedges the store.
func (f *File) Sync() error {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	f.mu.RLock()
	closed, wedged, active, segments := f.closed, f.wedged, f.active, len(f.sizes)
	f.mu.RUnlock()
	switch {
	case closed:
		return ErrClosed
	case wedged != nil:
		return wedged
	}
	start := time.Now()
	if err := active.Sync(); err != nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		if len(f.sizes) > segments && errors.Is(err, fs.ErrClosed) {
			// Rotation closed the handle under us, after its own fsync of
			// this segment succeeded.
			return nil
		}
		return f.wedge(fmt.Errorf("sync: %w", err))
	}
	fileMetrics.syncSeconds.ObserveSince(start)
	return nil
}

// Close implements Store.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	for _, r := range f.readers {
		if r != nil {
			r.Close() // only ever read
		}
	}
	if err := f.active.Close(); err != nil {
		return fmt.Errorf("blockstore: close: %w", err)
	}
	return nil
}

// Dir returns the directory holding the segments, used by the attack
// injector to corrupt files out-of-band.
func (f *File) Dir() string { return f.dir }

// ReadRaw reads the raw bytes of all segments concatenated, for the
// attack injector and the residual-plaintext probe. It bypasses frame
// validation deliberately.
func (f *File) ReadRaw() ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []byte
	for si := range f.sizes {
		data, err := f.fs.ReadFile(f.path(si))
		if err != nil {
			return nil, fmt.Errorf("blockstore: raw read of segment %d: %w", si, err)
		}
		out = append(out, data...)
	}
	return out, nil
}

// CorruptFrame models a format-aware insider with direct disk access: it
// rewrites the payload of the frame at ref in place — applying mutate to the
// payload and recomputing a *valid* CRC — so the tampering cannot be caught
// by the framing layer, only by cryptographic verification above it. mutate
// must return a payload of the same length (in-place disk edits cannot grow
// a frame).
func (f *File) CorruptFrame(ref Ref, mutate func([]byte) []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if int(ref.Segment) >= len(f.sizes) || int64(ref.Offset) >= f.sizes[ref.Segment] {
		return fmt.Errorf("%w: %v", ErrNotFound, ref)
	}
	path, format := f.path(int(ref.Segment)), f.format(int(ref.Segment))
	seg, err := f.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("blockstore: reading segment %d: %w", ref.Segment, err)
	}
	_, payload, n, err := format.Decode(seg[ref.Offset:f.sizes[ref.Segment]])
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	mutated := mutate(payload)
	if len(mutated) != len(payload) {
		return fmt.Errorf("blockstore: CorruptFrame must preserve length: %d != %d", len(mutated), len(payload))
	}
	copy(seg[ref.Offset:ref.Offset+uint64(n)], format.Append(nil, 0, mutated))
	return f.fs.WriteFile(path, seg, 0o600)
}

var _ io.Closer = (*File)(nil)
