package faultfs

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Mem is an in-memory filesystem that models a disk with a page cache: every
// file carries both its written content and the durable snapshot of it as of
// the last Sync. Namespace operations (create, rename, remove, truncate) are
// atomic and immediately durable, matching a journaled filesystem; content
// reaches the durable layer only through File.Sync.
//
// Open handles follow inodes: a file renamed or removed while open keeps
// serving its handle, which is what lets the WAL's checkpoint keep writing
// through the descriptor it renamed into place.
type Mem struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
}

// memFile is one inode. Its mutex guards data and durable against the
// handles open on it, which may write, read and sync concurrently with each
// other and with the namespace operations (taken under Mem.mu, then this).
type memFile struct {
	mu      sync.Mutex
	data    []byte // content as the OS would show it (page cache view)
	durable []byte // content guaranteed to survive a power cut
	mode    fs.FileMode
}

// size is the file's current length.
func (f *memFile) size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data))
}

var _ FS = (*Mem)(nil)

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{files: make(map[string]*memFile), dirs: make(map[string]bool)}
}

func clean(name string) string { return filepath.Clean(name) }

// addParents registers every ancestor directory of path.
func (m *Mem) addParents(path string) {
	for d := filepath.Dir(path); d != "." && d != string(filepath.Separator); d = filepath.Dir(d) {
		m.dirs[d] = true
	}
}

// OpenFile implements FS.
func (m *Mem) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = clean(name)
	f, ok := m.files[name]
	switch {
	case ok && flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case !ok && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case !ok:
		f = &memFile{mode: perm}
		m.files[name] = f
		m.addParents(name)
	}
	if flag&os.O_TRUNC != 0 {
		// Truncation is a journaled namespace operation: durable at once.
		f.mu.Lock()
		f.data, f.durable = nil, nil
		f.mu.Unlock()
	}
	return &memHandle{f: f}, nil
}

// ReadFile implements FS.
func (m *Mem) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[clean(name)]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.data...), nil
}

// WriteFile implements FS. Like os.WriteFile the new content is NOT durable
// until synced through a handle; the previous durable content is what a
// crash preserves.
func (m *Mem) WriteFile(name string, data []byte, perm fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = clean(name)
	f, ok := m.files[name]
	if !ok {
		f = &memFile{mode: perm}
		m.files[name] = f
		m.addParents(name)
	}
	f.mu.Lock()
	f.data = append([]byte(nil), data...)
	f.mu.Unlock()
	return nil
}

// Rename implements FS for files; nothing renames a directory.
func (m *Mem) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = clean(oldpath), clean(newpath)
	if m.dirs[oldpath] {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrInvalid}
	}
	f, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	m.addParents(newpath)
	return nil
}

// Remove implements FS.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = clean(name)
	if _, ok := m.files[name]; ok {
		delete(m.files, name)
		return nil
	}
	if m.dirs[name] {
		delete(m.dirs, name)
		return nil
	}
	return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
}

// RemoveAll implements FS.
func (m *Mem) RemoveAll(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = clean(name)
	prefix := name + string(filepath.Separator)
	for p := range m.files {
		if p == name || strings.HasPrefix(p, prefix) {
			delete(m.files, p)
		}
	}
	for d := range m.dirs {
		if d == name || strings.HasPrefix(d, prefix) {
			delete(m.dirs, d)
		}
	}
	return nil
}

// Truncate implements FS. Treated as a namespace operation: durable at once.
func (m *Mem) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[clean(name)]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if size > int64(len(f.data)) {
		f.data = append(f.data, make([]byte, size-int64(len(f.data)))...)
	} else {
		f.data = f.data[:size]
	}
	f.durable = append([]byte(nil), f.data...)
	return nil
}

// MkdirAll implements FS.
func (m *Mem) MkdirAll(name string, perm fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = clean(name)
	m.dirs[name] = true
	m.addParents(name + string(filepath.Separator) + "x")
	return nil
}

// ReadDir implements FS.
func (m *Mem) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = clean(name)
	if !m.dirs[name] {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: fs.ErrNotExist}
	}
	seen := make(map[string]fs.DirEntry)
	for p, f := range m.files {
		if filepath.Dir(p) == name {
			base := filepath.Base(p)
			seen[base] = memInfo{name: base, size: f.size(), mode: f.mode}
		}
	}
	for d := range m.dirs {
		if filepath.Dir(d) == name {
			base := filepath.Base(d)
			seen[base] = memInfo{name: base, dir: true, mode: 0o700}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]fs.DirEntry, 0, len(names))
	for _, n := range names {
		out = append(out, seen[n])
	}
	return out, nil
}

// Stat implements FS.
func (m *Mem) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = clean(name)
	if f, ok := m.files[name]; ok {
		return memInfo{name: filepath.Base(name), size: f.size(), mode: f.mode}, nil
	}
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true, mode: 0o700}, nil
	}
	return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
}

// KeepPolicy decides how much of a file's unsynced tail survives a power
// cut. It receives the unsynced pending bytes and returns the surviving
// prefix length.
type KeepPolicy func(pending int) int

// Canned keep policies for CrashImage.
var (
	// KeepNone loses every unsynced byte — the strict fsync contract.
	KeepNone KeepPolicy = func(int) int { return 0 }
	// KeepAll preserves every written byte — the page cache flushed just
	// before the cut. Acked state must hold here too (more state surviving
	// is never an excuse to break).
	KeepAll KeepPolicy = func(n int) int { return n }
	// KeepHalf preserves half the unsynced tail — a torn write: the cut lands
	// mid-flush and partial frames hit the medium.
	KeepHalf KeepPolicy = func(n int) int { return n / 2 }
)

// CrashImage returns the filesystem as it would be found on reboot after a
// power cut now: each file keeps its durable content plus, where the written
// content extends it (append-only files), the keep-policy's prefix of the
// unsynced tail. Content rewritten in place but never synced (WriteFile)
// reverts to its durable state. The image is fully durable — it represents
// media after the machine is back up — and shares nothing with m.
func (m *Mem) CrashImage(keep KeepPolicy) *Mem {
	m.mu.Lock()
	defer m.mu.Unlock()
	img := NewMem()
	for d := range m.dirs {
		img.dirs[d] = true
	}
	for p, f := range m.files {
		f.mu.Lock()
		surviving := append([]byte(nil), f.durable...)
		if bytes.HasPrefix(f.data, f.durable) {
			pending := f.data[len(f.durable):]
			surviving = append(surviving, pending[:keep(len(pending))]...)
		}
		f.mu.Unlock()
		img.files[p] = &memFile{
			data:    surviving,
			durable: append([]byte(nil), surviving...),
			mode:    f.mode,
		}
	}
	return img
}

// Dump returns a copy of every file's current content, keyed by path — the
// torture harness scans it for residual plaintext.
func (m *Mem) Dump() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.files))
	for p, f := range m.files {
		f.mu.Lock()
		out[p] = append([]byte(nil), f.data...)
		f.mu.Unlock()
	}
	return out
}

// Clone returns a deep copy of the filesystem with the page-cache and
// durable layers preserved separately — unlike CrashImage, nothing is lost.
// The failover simulator seeds a follower disk from a clone of the primary's
// image so both sides start from identical media.
func (m *Mem) Clone() *Mem {
	m.mu.Lock()
	defer m.mu.Unlock()
	img := NewMem()
	for d := range m.dirs {
		img.dirs[d] = true
	}
	for p, f := range m.files {
		f.mu.Lock()
		img.files[p] = &memFile{
			data:    append([]byte(nil), f.data...),
			durable: append([]byte(nil), f.durable...),
			mode:    f.mode,
		}
		f.mu.Unlock()
	}
	return img
}

// memHandle is an open handle on a memFile. The inode pointer is held
// directly, so renames and removes of the name do not detach it.
type memHandle struct {
	f *memFile
}

var _ File = (*memHandle)(nil)

func (h *memHandle) Write(p []byte) (int, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if off >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Sync makes the written content durable without copying it: durable is a
// capacity-capped prefix of data. Handles only append, past that prefix, and
// WriteFile, O_TRUNC and Truncate replace or copy the slice, so no later
// write reaches the bytes durable shares.
func (h *memHandle) Sync() error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	n := len(h.f.data)
	h.f.durable = h.f.data[:n:n]
	return nil
}

func (h *memHandle) Close() error { return nil }

// memInfo implements both fs.FileInfo and fs.DirEntry.
type memInfo struct {
	name string
	size int64
	mode fs.FileMode
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return i.mode | fs.ModeDir
	}
	return i.mode
}
func (i memInfo) ModTime() time.Time         { return time.Time{} }
func (i memInfo) IsDir() bool                { return i.dir }
func (i memInfo) Sys() any                   { return nil }
func (i memInfo) Type() fs.FileMode          { return i.Mode().Type() }
func (i memInfo) Info() (fs.FileInfo, error) { return i, nil }
