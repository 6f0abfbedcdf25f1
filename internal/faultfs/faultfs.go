// Package faultfs is the injectable filesystem seam under every durable byte
// MedVault writes. The WAL, the file block store (and therefore the audit and
// provenance logs persisted through it), metadata snapshots, and archived
// backups all perform their I/O through the FS interface, so a test — or the
// crash-recovery torture harness in internal/core — can interpose on any
// open, write, sync, rename, read, or truncate the vault performs.
//
// Three implementations compose:
//
//   - OS: the real filesystem. Production vaults run on this.
//   - Mem: an in-memory disk that distinguishes written bytes from *durable*
//     bytes (promoted by Sync), so a simulated power cut — CrashImage — can
//     answer the only question that matters for crash consistency: "which
//     bytes are still there after the machine dies here?"
//   - Faulty: a wrapper over either of the above that consults an injector
//     before every operation and can fail it (EIO, ENOSPC), tear it (apply a
//     prefix of a write, then die), corrupt it (flip a bit of a read), or
//     declare a power cut, after which every subsequent call fails.
//
// The crash model Mem implements is a journaled filesystem in its common
// configuration (ext4 ordered mode): namespace operations — create, rename,
// remove, truncate — are atomic and immediately durable, while file *content*
// reaches stable storage only on fsync. A crash may additionally preserve an
// arbitrary prefix of the unsynced tail of an append-only file (the page
// cache flushes whenever it likes), which is exactly the torn-write case the
// WAL's CRC framing and the block store's frame validation must absorb.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
)

// Errors returned by fault injection.
var (
	// ErrCrashed indicates the simulated machine has lost power: the
	// operation did not happen, and no later operation will.
	ErrCrashed = errors.New("faultfs: simulated power failure")
	// ErrInjected is the generic injected I/O failure (wrap or compare with
	// errors.Is).
	ErrInjected = errors.New("faultfs: injected I/O error")
	// ErrNoSpace is the injected out-of-space failure.
	ErrNoSpace = errors.New("faultfs: no space left on device (injected)")
)

// File is an open file handle. The vault's writers only ever append (every
// segment and log is opened O_APPEND), so Write extends the file; ReadAt
// serves random reads.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync flushes written bytes to stable storage. Only synced bytes are
	// guaranteed to survive a crash.
	Sync() error
}

// FS abstracts the filesystem operations MedVault's durable layers perform.
// Implementations must be safe for concurrent use.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics for the flag subset the
	// vault uses: O_RDONLY, O_WRONLY, O_CREATE, O_EXCL, O_TRUNC, O_APPEND.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// ReadFile returns the whole content of name.
	ReadFile(name string) ([]byte, error)
	// WriteFile replaces the content of name. Like os.WriteFile it does NOT
	// sync; callers needing durability must write through OpenFile and Sync.
	WriteFile(name string, data []byte, perm fs.FileMode) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file or empty directory.
	Remove(name string) error
	// RemoveAll deletes name and any children.
	RemoveAll(name string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// MkdirAll creates name and missing parents.
	MkdirAll(name string, perm fs.FileMode) error
	// ReadDir lists the directory in name order.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Stat describes name.
	Stat(name string) (fs.FileInfo, error)
}

// WriteFileAtomic replaces path with data crash-atomically: write path.tmp,
// sync, close, rename over path. After a crash at any point path holds
// either its previous content or all of data — never a prefix, and never an
// empty file. The sync must precede the rename: a rename can become durable
// ahead of the data it names, and a crash in that window would leave a
// truncated file where a complete one was promised. A failed step removes
// the temp file.
func WriteFileAtomic(fsys FS, path string, data []byte, perm fs.FileMode) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
	}
	return err
}

// OpKind classifies an operation for fault injection.
type OpKind int

// Operation kinds reported to injectors.
const (
	OpOpen      OpKind = iota // OpenFile that creates or truncates (mutating)
	OpWrite                   // File.Write
	OpSync                    // File.Sync
	OpRename                  // FS.Rename
	OpTruncate                // FS.Truncate
	OpRemove                  // FS.Remove / FS.RemoveAll
	OpWriteFile               // FS.WriteFile
	OpRead                    // File.ReadAt / FS.ReadFile (not mutating)
)

// String names the op kind for reports.
func (k OpKind) String() string {
	switch k {
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpTruncate:
		return "truncate"
	case OpRemove:
		return "remove"
	case OpWriteFile:
		return "writefile"
	case OpRead:
		return "read"
	}
	return "unknown"
}

// Mutating reports whether the op kind changes on-disk state — the kinds that
// are injection points for crash simulation.
func (k OpKind) Mutating() bool { return k != OpRead }

// Op describes one filesystem operation about to happen.
type Op struct {
	Kind OpKind
	Path string // target path ("new" path for renames)
	// Index is the zero-based position of this op in the sequence of
	// *mutating* ops performed through the Faulty wrapper; -1 for reads.
	// It is what the torture harness enumerates as injection points.
	Index int
	// Bytes is the payload size for writes and write-files, 0 otherwise.
	Bytes int
}
