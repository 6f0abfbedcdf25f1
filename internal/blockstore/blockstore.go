// Package blockstore implements MedVault's low-level storage engine: a
// log-structured, append-only store of variable-length blocks, split across
// fixed-capacity segment files.
//
// Append-only is a deliberate compliance property, not an implementation
// convenience: nothing in the engine can overwrite a written byte, so every
// higher layer (WORM, versioned records, audit) inherits physical
// write-once behaviour on cheap commodity files — the paper's cost
// requirement. Each block is a frame.Var frame (uvarint len | u32 CRC-32C |
// payload; segments an older binary wrote hold frame.Block frames, which
// are read, never appended to), so accidental corruption and torn writes are
// detected on read; *malicious* rewrites (an insider can
// recompute a CRC) are caught one layer up by the Merkle commitment log.
package blockstore

import (
	"errors"
	"fmt"

	"medvault/internal/obs"
)

// Errors returned by the package.
var (
	// ErrNotFound indicates no block exists at the given reference.
	ErrNotFound = errors.New("blockstore: block not found")
	// ErrCorrupt indicates a block failed its CRC or framing check.
	ErrCorrupt = errors.New("blockstore: block corrupt")
	// ErrClosed indicates use of a closed store.
	ErrClosed = errors.New("blockstore: store closed")
	// ErrTooLarge indicates a block exceeding the segment capacity.
	ErrTooLarge = errors.New("blockstore: block exceeds segment capacity")
	// ErrWedged wraps a failed fsync, or the failure that left part of a
	// frame past a segment's committed end and could not be taken back: the
	// store refuses every later append and sync rather than vouch for it.
	ErrWedged = errors.New("blockstore: wedged, refusing further appends")
)

// Ref locates a block: which segment and the byte offset of its frame
// within that segment.
type Ref struct {
	Segment uint32
	Offset  uint64
}

// String formats a Ref for logs and audit entries.
func (r Ref) String() string { return fmt.Sprintf("%d:%d", r.Segment, r.Offset) }

// Store is an append-only block store.
type Store interface {
	// Append writes data, which must not be empty, as a new block and
	// returns its reference.
	Append(data []byte) (Ref, error)
	// Read returns the block at ref. The returned slice is a private copy.
	Read(ref Ref) ([]byte, error)
	// Scan calls fn for every block in append order; stopping early by
	// returning a non-nil error (which Scan then returns). Scan also
	// verifies framing as it goes, so a full Scan doubles as a media check.
	Scan(fn func(ref Ref, data []byte) error) error
	// ScanSpan calls fn, in order, for every block of from's segment from
	// the one at from up to offset to, or to the segment's committed end
	// when to is past it, from one read of that span; it stops early as
	// Scan does. data is valid only during fn's call.
	ScanSpan(from Ref, to uint64, fn func(ref Ref, data []byte) error) error
	// StorageBytes returns the total bytes consumed, including framing.
	StorageBytes() int64
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Close releases resources. The store is unusable afterwards.
	Close() error
}

// fileMetrics is the I/O instrumentation every store shares, labeled
// backend="file".
var fileMetrics = struct {
	appends, appendBytes       *obs.Counter
	reads, readBytes           *obs.Counter
	appendSeconds, readSeconds *obs.Histogram
	syncSeconds                *obs.Histogram
}{
	appends: obs.Default.Counter("medvault_blockstore_appends_total",
		"Blocks appended.", backendFile),
	appendBytes: obs.Default.Counter("medvault_blockstore_append_bytes_total",
		"Bytes appended, framing included.", backendFile),
	reads: obs.Default.Counter("medvault_blockstore_reads_total",
		"Blocks read.", backendFile),
	readBytes: obs.Default.Counter("medvault_blockstore_read_bytes_total",
		"Payload bytes read.", backendFile),
	appendSeconds: obs.Default.Histogram("medvault_blockstore_append_seconds",
		"Block append latency.", obs.LatencyBuckets, backendFile),
	readSeconds: obs.Default.Histogram("medvault_blockstore_read_seconds",
		"Block read latency.", obs.LatencyBuckets, backendFile),
	syncSeconds: obs.Default.Histogram("medvault_blockstore_sync_seconds",
		"Store sync (fsync) latency.", obs.LatencyBuckets, backendFile),
}

var backendFile = obs.L("backend", "file")
