package faultfs

import (
	"io/fs"
	"os"
	"sync"
)

// Fault is what an Injector returns to make an operation misbehave. The zero
// value (nil pointer) lets the operation through untouched.
type Fault struct {
	// Err fails the operation with this error; it never reaches the inner
	// filesystem, except for the prefix ApplyBytes names on OpWrite. Combine
	// with Crash for error-then-crash scripts.
	Err error
	// Crash simulates a power cut at this operation: the crashed latch is set
	// and every call from now on returns ErrCrashed. By default the operation
	// itself does not happen; see After and ApplyBytes.
	Crash bool
	// After makes a Crash land just after the operation completes instead of
	// just before it. The caller still sees ErrCrashed — the machine died
	// before it could observe success — but the disk did the work.
	After bool
	// ApplyBytes tears a Write: that many payload bytes reach the page cache
	// before the cut (with Crash) or before the write fails with Err — a
	// short write, such as a disk filling up mid-frame. Only meaningful on
	// OpWrite.
	ApplyBytes int
	// CorruptRead flips one bit of the data returned by a read — simulated
	// bit rot on the medium. Only meaningful on OpRead.
	CorruptRead bool
	// Hold parks the operation, once the injector has passed it and outside
	// the wrapper's lock, until Hold is closed; then it runs (or fails) as
	// the other fields say. Other operations flow meanwhile, so a test can
	// hold one fsync in flight and watch what it blocks. Only meaningful on
	// OpSync.
	Hold <-chan struct{}
}

// Injector inspects each operation about to run and may return a Fault.
// Injectors are called with the wrapper's lock held, so they may keep plain
// local state, but must not call back into the filesystem.
type Injector func(Op) *Fault

// Faulty wraps an FS and consults an Injector before every operation. It
// numbers mutating operations (Op.Index) — those are the injection points a
// crash can be simulated at — and once a Fault with Crash fires, every
// subsequent operation fails with ErrCrashed until the wrapper is discarded.
type Faulty struct {
	inner  FS
	inject Injector

	mu       sync.Mutex
	mutating int
	crashed  bool
}

var _ FS = (*Faulty)(nil)

// NewFaulty wraps inner. A nil injector injects nothing (but still counts
// mutating ops and honors the crash latch).
func NewFaulty(inner FS, inject Injector) *Faulty {
	return &Faulty{inner: inner, inject: inject}
}

// MutatingOps returns how many mutating operations have flowed through so
// far. Run a workload with no faults, read this, and you have the number of
// injection points the workload exposes.
func (f *Faulty) MutatingOps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mutating
}

// Crashed reports whether a simulated power cut has fired.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// begin numbers the op, consults the injector, and applies the crash latch.
// It returns the fault to act on (nil for none) or ErrCrashed.
func (f *Faulty) begin(kind OpKind, path string, nbytes int, isMutating bool) (*Fault, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	op := Op{Kind: kind, Path: path, Index: -1, Bytes: nbytes}
	if isMutating {
		op.Index = f.mutating
		f.mutating++
	}
	if f.inject == nil {
		return nil, nil
	}
	ft := f.inject(op)
	if ft != nil && ft.Crash {
		f.crashed = true
	}
	return ft, nil
}

// OpenFile implements FS. Opens that can change state (write, create, or
// truncate) are injection points; read-only opens pass through uncounted.
func (f *Faulty) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	const mutatingFlags = os.O_CREATE | os.O_TRUNC | os.O_WRONLY | os.O_RDWR
	ft, err := f.begin(OpOpen, name, 0, flag&mutatingFlags != 0)
	if err != nil {
		return nil, err
	}
	if ft != nil {
		if ft.Err != nil {
			return nil, ft.Err
		}
		if ft.Crash && !ft.After {
			return nil, ErrCrashed
		}
	}
	h, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if ft != nil && ft.Crash {
		h.Close()
		return nil, ErrCrashed
	}
	return &faultyFile{fsys: f, path: name, inner: h}, nil
}

// ReadFile implements FS.
func (f *Faulty) ReadFile(name string) ([]byte, error) {
	ft, err := f.begin(OpRead, name, 0, false)
	if err != nil {
		return nil, err
	}
	if ft != nil {
		if ft.Err != nil {
			return nil, ft.Err
		}
		if ft.Crash {
			return nil, ErrCrashed
		}
	}
	data, err := f.inner.ReadFile(name)
	if err == nil && ft != nil && ft.CorruptRead && len(data) > 0 {
		data[len(data)/2] ^= 0x40
	}
	return data, err
}

// WriteFile implements FS.
func (f *Faulty) WriteFile(name string, data []byte, perm fs.FileMode) error {
	ft, err := f.begin(OpWriteFile, name, len(data), true)
	if err != nil {
		return err
	}
	if ft != nil {
		if ft.Err != nil {
			return ft.Err
		}
		if ft.Crash && !ft.After {
			return ErrCrashed
		}
	}
	err = f.inner.WriteFile(name, data, perm)
	if ft != nil && ft.Crash {
		return ErrCrashed
	}
	return err
}

// namespaceOp funnels Rename/Remove/RemoveAll/Truncate fault handling.
func (f *Faulty) namespaceOp(kind OpKind, path string, apply func() error) error {
	ft, err := f.begin(kind, path, 0, true)
	if err != nil {
		return err
	}
	if ft != nil {
		if ft.Err != nil {
			return ft.Err
		}
		if ft.Crash && !ft.After {
			return ErrCrashed
		}
	}
	err = apply()
	if ft != nil && ft.Crash {
		return ErrCrashed
	}
	return err
}

// Rename implements FS.
func (f *Faulty) Rename(oldpath, newpath string) error {
	return f.namespaceOp(OpRename, newpath, func() error { return f.inner.Rename(oldpath, newpath) })
}

// Remove implements FS.
func (f *Faulty) Remove(name string) error {
	return f.namespaceOp(OpRemove, name, func() error { return f.inner.Remove(name) })
}

// RemoveAll implements FS.
func (f *Faulty) RemoveAll(name string) error {
	return f.namespaceOp(OpRemove, name, func() error { return f.inner.RemoveAll(name) })
}

// Truncate implements FS.
func (f *Faulty) Truncate(name string, size int64) error {
	return f.namespaceOp(OpTruncate, name, func() error { return f.inner.Truncate(name, size) })
}

// MkdirAll implements FS. Directory creation is not an injection point (the
// vault only does it before any data exists); it still honors the latch.
func (f *Faulty) MkdirAll(name string, perm fs.FileMode) error {
	if f.Crashed() {
		return ErrCrashed
	}
	return f.inner.MkdirAll(name, perm)
}

// ReadDir implements FS.
func (f *Faulty) ReadDir(name string) ([]fs.DirEntry, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.inner.ReadDir(name)
}

// Stat implements FS.
func (f *Faulty) Stat(name string) (fs.FileInfo, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.inner.Stat(name)
}

// faultyFile threads a handle's writes, reads, and syncs back through the
// wrapper's injector.
type faultyFile struct {
	fsys  *Faulty
	path  string
	inner File
}

var _ File = (*faultyFile)(nil)

func (h *faultyFile) Write(p []byte) (int, error) {
	ft, err := h.fsys.begin(OpWrite, h.path, len(p), true)
	if err != nil {
		return 0, err
	}
	if ft != nil {
		if ft.Err != nil {
			// Short write: a prefix of the payload lands, then the error.
			n := min(ft.ApplyBytes, len(p))
			if n > 0 {
				n, _ = h.inner.Write(p[:n])
			}
			return n, ft.Err
		}
		if ft.Crash {
			// Torn write: a prefix of the payload lands before the cut.
			n := ft.ApplyBytes
			if ft.After || n > len(p) {
				n = len(p)
			}
			if n > 0 {
				h.inner.Write(p[:n])
			}
			return 0, ErrCrashed
		}
	}
	return h.inner.Write(p)
}

func (h *faultyFile) ReadAt(p []byte, off int64) (int, error) {
	ft, err := h.fsys.begin(OpRead, h.path, len(p), false)
	if err != nil {
		return 0, err
	}
	if ft != nil {
		if ft.Err != nil {
			return 0, ft.Err
		}
		if ft.Crash {
			return 0, ErrCrashed
		}
	}
	n, err := h.inner.ReadAt(p, off)
	if ft != nil && ft.CorruptRead && n > 0 {
		p[n/2] ^= 0x40
	}
	return n, err
}

func (h *faultyFile) Sync() error {
	ft, err := h.fsys.begin(OpSync, h.path, 0, true)
	if err != nil {
		return err
	}
	if ft != nil {
		if ft.Hold != nil {
			<-ft.Hold
		}
		if ft.Err != nil {
			return ft.Err
		}
		if ft.Crash && !ft.After {
			return ErrCrashed
		}
	}
	err = h.inner.Sync()
	if ft != nil && ft.Crash {
		return ErrCrashed
	}
	return err
}

// Close is not an injection point: it writes nothing, and letting it through
// after a crash keeps teardown paths quiet.
func (h *faultyFile) Close() error { return h.inner.Close() }

// Canned injectors for common scripts. They keep private counters, so build a
// fresh one per run; like all injectors they assume a sequential workload.

// FailAt fails mutating op index with err (error only — no crash).
func FailAt(index int, err error) Injector {
	return func(op Op) *Fault {
		if op.Index == index {
			return &Fault{Err: err}
		}
		return nil
	}
}

// CrashBefore cuts power in place of mutating op index: the op never happens.
func CrashBefore(index int) Injector {
	return func(op Op) *Fault {
		if op.Index == index {
			return &Fault{Crash: true}
		}
		return nil
	}
}

// CrashAfter cuts power immediately after mutating op index completes.
func CrashAfter(index int) Injector {
	return func(op Op) *Fault {
		if op.Index == index {
			return &Fault{Crash: true, After: true}
		}
		return nil
	}
}

// TornWriteAt cuts power mid-write at mutating op index, landing half the
// payload. If op index is not a write it behaves like CrashBefore.
func TornWriteAt(index int) Injector {
	return func(op Op) *Fault {
		if op.Index == index {
			return &Fault{Crash: true, ApplyBytes: op.Bytes / 2}
		}
		return nil
	}
}

// FailNthSync fails the nth sync (0-based, counting only syncs) with err.
func FailNthSync(n int, err error) Injector {
	syncs := 0
	return func(op Op) *Fault {
		if op.Kind != OpSync {
			return nil
		}
		syncs++
		if syncs-1 == n {
			return &Fault{Err: err}
		}
		return nil
	}
}
