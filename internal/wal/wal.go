// Package wal implements a write-ahead log for crash consistency.
//
// A MedVault mutation touches several structures (record log, Merkle log,
// encrypted index, audit chain). The WAL makes the group atomic: the intent
// record is durably appended first, and on restart any suffix of intents not
// covered by the last checkpoint is replayed idempotently. Entries are
// frame.Var frames (uvarint len | u32 CRC-32C | payload), and an entry's
// sequence number is its position in the file; a torn tail from a crash is
// truncated on open, never silently skipped over.
//
// A log an older binary wrote is frame.Seq frames, each carrying its
// sequence number. Such a file continues across an upgrade, so the first
// entry written to a file without one (a fresh checkpoint generation
// included) opens with a layout marker: a Seq frame an older reader decodes
// and then refuses, where it would otherwise cut the Var frames after it away
// as a torn tail. Var frames the marker does not announce are ErrCorrupt.
//
// An entry is framed and written under the log's lock when it is enqueued,
// so the call that writes it returns the write's error, and ReadAt reads it
// back from then on. An entry that asked only to be written (Written) is
// done then, and becomes durable with the next fsync. An entry that asked to
// be durable (Durable) waits for an fsync that covers its bytes, which its
// wait runs itself unless one is in flight: every Durable entry written
// while one fsync runs shares the next, which is where the multi-writer
// throughput of the vault's durable mode comes from. A wait covered by an
// fsync returns when that fsync ends, never after a later one.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
	"medvault/internal/obs"
)

// Package metrics: every Log in the process shares these, mirroring how all
// WAL traffic shares the underlying disk.
var (
	metAppends = obs.Default.Counter("medvault_wal_appends_total",
		"WAL entries durably appended that asked for durability.")
	metWrittenOnly = obs.Default.Counter("medvault_wal_written_only_total",
		"WAL entries written that asked only to be written (audit events of reads).")
	metAppendBytes = obs.Default.Counter("medvault_wal_append_bytes_total",
		"Bytes appended to the WAL, framing included.")
	metFsync = obs.Default.Histogram("medvault_wal_fsync_seconds",
		"Latency of the fsync that makes a WAL batch durable.", obs.LatencyBuckets)
	metCheckpoints = obs.Default.Counter("medvault_wal_checkpoints_total",
		"WAL checkpoints completed.")
	metGroupCommits = obs.Default.Counter("medvault_wal_group_commits_total",
		"Fsyncs that made Durable entries durable; appends/group_commits is the batching factor.")
	metBatchEntries = obs.Default.Histogram("medvault_wal_batch_entries",
		"Entries that asked for durability coalesced per group commit.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	metQueueDepth = obs.Default.Gauge("medvault_wal_queue_depth",
		"Durable WAL entries written whose wait for an fsync has not returned.")
	metWedged = obs.Default.Gauge("medvault_wal_wedged",
		"1 when a WAL in this process has wedged on a write/fsync failure.")
)

// Errors returned by the package.
var (
	// ErrClosed indicates use of a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrCorrupt indicates an unreadable entry before the log tail.
	ErrCorrupt = errors.New("wal: log corrupt")
	// ErrWedged wraps the fatal write/fsync failure that wedged a log.
	// Every append after the wedge fails with an error chain carrying both
	// this sentinel and the original fault, so callers (and HTTP layers
	// above them) can classify "the vault cannot durably commit" without
	// string-matching the underlying disk error.
	ErrWedged = errors.New("wal: wedged, refusing further appends")
)

// layoutMarker is the payload of the frame.Seq entry after which a log is
// frame.Var frames. Its first byte, '!', opens no entry a WAL user writes, so
// an older binary's replay refuses it; the marker is no entry, and takes no
// sequence number, in this one.
var layoutMarker = []byte("!var")

// Entry is a recovered log entry and its frame's offset in the file. Data
// aliases the log image Read loaded: keeping it keeps the whole image alive.
type Entry struct {
	Seq  uint64
	Off  int64
	Data []byte
}

// Durability is what an entry's writer waits for.
type Durability bool

const (
	// Durable entries are written, and fsynced before their wait returns.
	Durable Durability = true
	// Written entries are written, and take no wait: the next fsync makes
	// them durable.
	Written Durability = false
)

// Log is a single-file write-ahead log. Safe for concurrent use; concurrent
// Durable entries share fsyncs.
type Log struct {
	mu      sync.Mutex
	synced  *sync.Cond // broadcast when an fsync ends
	fs      faultfs.FS
	f       faultfs.File
	path    string
	nextSeq uint64
	size    int64 // durable bytes
	written int64 // bytes written, durable or not: where the next frame starts, and ReadAt's bound
	varFrom int64 // where the Var frames start, past the layout marker; 0 before it is written
	closed  bool
	wedged  error // fatal write/sync failure; the log refuses further appends

	// Group-commit state, guarded by mu. The Durable entries are numbered
	// from 0 in the order they are written, for as long as the Log lives:
	// entries [0, covered) are durable, and hooks holds the durable hook
	// (or nil) of each entry written since the last fsync began, in order.
	// syncing is true while a waiter runs an fsync; queued counts the
	// Durable entries whose wait has not returned.
	hooks    []func()
	durables uint64
	covered  uint64
	syncing  bool
	queued   int
	buf      []byte // the frame of the last entry written, emptied for reuse
}

// maxSpareBuf bounds the frame buffer a log keeps for reuse, so one large
// entry does not pin its size.
const maxSpareBuf = 64 << 10

// OpenFS opens (or creates) the WAL at path on fsys (faultfs.OS for the real
// filesystem), truncating any torn tail. Recovered entries are replayed to fn
// in order before OpenFS returns; fn may be nil to skip replay.
func OpenFS(fsys faultfs.FS, path string, fn func(Entry) error) (*Log, error) {
	if err := fsys.MkdirAll(filepath.Dir(path), 0o700); err != nil {
		return nil, fmt.Errorf("wal: creating dir: %w", err)
	}
	data, err := readFile(fsys, path)
	if err != nil {
		return nil, err
	}
	var nextSeq uint64
	varFrom, off, err := walk(data, func(e Entry) error {
		nextSeq = e.Seq + 1
		if fn == nil {
			return nil
		}
		return fn(e)
	})
	if err != nil {
		return nil, err
	}
	size := int64(len(data))
	if off < size {
		if err := fsys.Truncate(path, off); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	l := &Log{fs: fsys, f: f, path: path, nextSeq: nextSeq, size: off, written: off, varFrom: varFrom}
	l.synced = sync.NewCond(&l.mu)
	return l, nil
}

// Read decodes the log at path without opening it for writing. It calls fn
// with each entry of the valid prefix in order and returns the prefix's
// length and the file's size; the bytes between them are a torn tail, which
// Read leaves in place because it never writes. A legacy entry out of
// sequence, and Var frames no layout marker announces, are ErrCorrupt
// wherever they sit. A missing file is an empty log. OpenFS replays through
// the same walk and then cuts the torn tail.
func Read(fsys faultfs.FS, path string, fn func(Entry) error) (valid, size int64, err error) {
	data, err := readFile(fsys, path)
	if err != nil {
		return 0, 0, err
	}
	if _, valid, err = walk(data, fn); err != nil {
		return 0, 0, err
	}
	return valid, int64(len(data)), nil
}

// readFile loads the log image; a missing file is an empty log.
func readFile(fsys faultfs.FS, path string) ([]byte, error) {
	data, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	return data, nil
}

var (
	// errMarker stops the walk of a log's Seq frames at its layout marker.
	errMarker = errors.New("wal: layout marker")
	// errZeroTail stops a walk at a run of zeros that reaches the end.
	errZeroTail = errors.New("wal: zero-filled tail")
	// errEmpty refuses an empty entry, whose frame zeros would spell.
	errEmpty = errors.New("wal: empty entry")
)

// walk decodes a log image: legacy Seq frames up to the layout marker, if
// any, and Var frames after it. It calls fn with each entry of the valid
// prefix and returns where the Var frames start (0 without a marker) and
// the prefix's length. A filesystem may zero-fill a crashed file's tail, and
// zeros from a frame's start to the end of the file decode as empty frames,
// which Enqueue never writes: the prefix ends at the first such frame.
func walk(data []byte, fn func(Entry) error) (varFrom, valid int64, err error) {
	zeros := len(bytes.TrimRight(data, "\x00"))
	var next uint64
	var refused error // an entry the log or fn refused, as opposed to a torn tail
	entry := func(off int, payload []byte) error {
		if err := fn(Entry{Seq: next, Off: int64(off), Data: payload}); err != nil {
			refused = fmt.Errorf("wal: replaying entry %d: %w", next, err)
			return refused
		}
		next++
		return nil
	}
	n, err := frame.Seq.Walk(data, func(off int, seq uint64, payload []byte) error {
		switch {
		case off >= zeros:
			return errZeroTail
		case seq != next:
			refused = fmt.Errorf("%w: sequence gap at offset %d: got %d, want %d", ErrCorrupt, off, seq, next)
			return refused
		case bytes.Equal(payload, layoutMarker):
			return errMarker
		}
		return entry(off, payload)
	})
	switch {
	case refused != nil:
		return 0, 0, refused
	case err == nil, err == errZeroTail:
		return 0, int64(n), nil
	case err != errMarker:
		// A torn Seq frame opens with its sequence number's zero high
		// byte, which a Var frame reads as an empty payload: a whole
		// non-empty Var frame here is a layout switch without its marker.
		if _, p, _, verr := frame.Var.Decode(data[n:]); verr == nil && len(p) > 0 {
			return 0, 0, fmt.Errorf("%w: frame.Var frames at offset %d with no layout marker before them", ErrCorrupt, n)
		}
		return 0, int64(n), nil
	}
	from := n + frame.Seq.Overhead() + len(layoutMarker)
	m, _ := frame.Var.Walk(data[from:], func(off int, _ uint64, payload []byte) error {
		if from+off >= zeros {
			return errZeroTail
		}
		return entry(from+off, payload)
	})
	if refused != nil {
		return 0, 0, refused
	}
	return int64(from), int64(from + m), nil
}

// Enqueue writes an entry, the concatenation of parts, and returns its
// sequence number, the offset of its frame in the file (ReadAt's argument),
// and, for a Durable entry, a wait; on an error the entry is not logged,
// and a failed write wedges the log. From then on ReadAt reads the entry
// back, and the next fsync makes it durable.
// A Durable entry is NOT durable until its wait, which the caller must
// invoke exactly once, returns nil: it blocks until an fsync covers the
// entry, which it runs itself unless one is in flight, or fails with the
// error that wedged the log. durable, if not nil, runs after the entry is
// fsynced and before its wait returns, outside the log's lock and in
// sequence order across entries; never for an entry whose fsync failed, or
// for any entry of a wedged log. A Written entry takes no hook and no wait.
// An empty entry is refused.
func (l *Log) Enqueue(want Durability, durable func(), parts ...[]byte) (seq uint64, off int64, wait func() error, err error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return 0, 0, nil, errEmpty
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return 0, 0, nil, ErrClosed
	case l.wedged != nil:
		return 0, 0, nil, l.wedged
	}
	buf := l.buf[:0]
	if l.varFrom == 0 {
		buf = frame.Seq.Append(buf, l.nextSeq, layoutMarker)
	}
	at := len(buf)
	buf = frame.Var.Append(buf, 0, parts...)
	if _, err := l.f.Write(buf); err != nil {
		return 0, 0, nil, l.wedge(fmt.Errorf("wal: appending entry: %w", err))
	}
	if cap(buf) <= maxSpareBuf {
		l.buf = buf[:0]
	}
	metAppendBytes.Add(uint64(len(buf)))
	seq, off = l.nextSeq, l.written+int64(at)
	if l.varFrom == 0 {
		l.varFrom = off
	}
	l.nextSeq++
	l.written += int64(len(buf))
	if want == Written {
		metWrittenOnly.Inc()
		return seq, off, nil, nil
	}
	i := l.durables
	l.durables++
	l.hooks = append(l.hooks, durable)
	l.queued++
	metQueueDepth.Add(1)
	return seq, off, func() error { return l.wait(i) }, nil
}

// wait blocks until Durable entry i is durable, or the log wedged without an
// fsync in flight that covers it.
func (l *Log) wait(i uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	defer func() { l.queued--; metQueueDepth.Add(-1) }()
	for l.covered <= i {
		switch {
		case l.syncing:
			l.synced.Wait()
		case l.wedged != nil:
			return l.wedged
		default:
			l.sync()
		}
	}
	return nil
}

// sync fsyncs every byte written so far, so the Durable entries written
// since the last fsync began are durable, and runs their hooks in sequence
// order. A failed fsync wedges the log. The caller holds l.mu, which sync
// releases during the fsync and the hooks, with no fsync in flight and the
// log not wedged.
func (l *Log) sync() {
	hooks, n, f := l.hooks, l.written, l.f
	l.hooks, l.syncing = nil, true
	l.mu.Unlock()
	start := time.Now()
	err := f.Sync()
	if err == nil {
		metFsync.ObserveSince(start)
		metGroupCommits.Inc()
		metBatchEntries.Observe(float64(len(hooks)))
		metAppends.Add(uint64(len(hooks)))
		for _, h := range hooks {
			if h != nil {
				h()
			}
		}
	}
	l.mu.Lock()
	l.syncing = false
	switch {
	case err == nil:
		l.size, l.covered = n, l.covered+uint64(len(hooks))
	case l.wedged == nil:
		l.wedge(fmt.Errorf("wal: syncing batch: %w", err))
	}
	l.synced.Broadcast()
}

// drain makes every Durable entry written so far durable, unless the log
// wedges, and waits out an fsync in flight. The caller holds l.mu.
func (l *Log) drain() {
	for l.syncing || l.wedged == nil && len(l.hooks) > 0 {
		if l.syncing {
			l.synced.Wait()
		} else {
			l.sync()
		}
	}
}

// wedge records err, the failed write or fsync that leaves the on-disk tail
// unknown, and returns the error every later entry fails with: the log
// appends nothing after a gap. The caller holds l.mu.
func (l *Log) wedge(err error) error {
	// This is the loudest event a durable vault can emit short of
	// crashing — every subsequent durable mutation will fail — so it is
	// logged structurally as well as gauged.
	l.wedged = fmt.Errorf("%w: %w", ErrWedged, err)
	metWedged.Set(1)
	slog.Error("wal wedged: write/fsync failed, refusing further appends",
		"path", l.path, "err", l.wedged)
	// Mark the in-memory flight ring too (the postmortem dump and the
	// flight endpoint read it). This event is not persisted: what the
	// persisted flight tail shows is every later op whose outcome is
	// wedged.
	obs.DefaultFlight.Record(obs.FlightEvent{
		Kind: "wal.wedge", Outcome: "error",
		Detail: "write/fsync failed; WAL refuses further appends",
	})
	return l.wedged
}

// Append durably records data and returns its sequence number. The entry is
// written and fsynced before Append returns: when Append succeeds, the
// intent survives a crash. Concurrent Appends share fsyncs via group commit.
func (l *Log) Append(data []byte) (uint64, error) {
	seq, _, wait, err := l.Enqueue(Durable, nil, data)
	if err == nil {
		err = wait()
	}
	if err != nil {
		return 0, err
	}
	return seq, nil
}

// Wedged returns the fatal error that wedged the log, or nil. A wedged log
// fails every append with the same error until the process restarts; the
// health endpoint surfaces this state.
func (l *Log) Wedged() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wedged
}

// QueueDepth returns the number of Durable entries written whose wait has
// not returned.
func (l *Log) QueueDepth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.queued
}

// NextSeq returns the sequence number the next Append will use.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Size returns the durably committed log size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// ReadAt reads back and checks the payload of the written entry at off, an
// offset Enqueue or Read reported in the current checkpoint generation.
func (l *Log) ReadAt(off int64) ([]byte, error) {
	l.mu.Lock()
	r, size, closed, f := l.f, l.written, l.closed, formatAt(l.varFrom, off)
	l.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	_, data, err := f.ReadAt(r, off, size)
	if err != nil {
		return nil, fmt.Errorf("%w: entry at offset %d: %v", ErrCorrupt, off, err)
	}
	return data, nil
}

// A Scan's first read is scanFirst bytes, and each next one twice the last
// up to scanChunk, or one whole entry larger than that: a Scan that stops
// after a few entries, as the audit log's stream of one stretch does, reads
// and allocates little.
const scanFirst, scanChunk = 4 << 10, 64 << 10

// Scan calls fn, in order, with the offset and payload of every written
// entry from the one at off, an offset past the layout marker that Enqueue
// or Read reported: what ReadAt returns for each, from sequential reads of
// growing size. The payload is valid only during fn's call. An entry that
// is not whole, or fails its check, is ErrCorrupt.
func (l *Log) Scan(off int64, fn func(off int64, data []byte) error) error {
	l.mu.Lock()
	r, end, varFrom, closed := l.f, l.written, l.varFrom, l.closed
	l.mu.Unlock()
	switch {
	case closed:
		return ErrClosed
	case varFrom == 0 || off < varFrom:
		return fmt.Errorf("%w: no entry past the layout marker at offset %d", ErrCorrupt, off)
	}
	buf := make([]byte, scanFirst)
	for off < end {
		n := min(int64(len(buf)), end-off)
		if _, err := r.ReadAt(buf[:n], off); err != nil {
			return fmt.Errorf("%w: reading at offset %d: %v", ErrCorrupt, off, err)
		}
		var fnErr error
		valid, err := frame.Var.Walk(buf[:n], func(at int, _ uint64, p []byte) error {
			fnErr = fn(off+int64(at), p)
			return fnErr
		})
		off += int64(valid)
		switch {
		case fnErr != nil:
			return fnErr
		case err == nil || valid > 0:
			if len(buf) < scanChunk {
				buf = make([]byte, 2*len(buf))
			}
			continue // the entry that did not fit starts the next read
		}
		// The first entry does not fit the buffer: read it whole, unless it
		// is whole already, and so corrupt.
		h, herr := frame.Var.Header(buf[:n])
		need := int64(len(binary.AppendUvarint(nil, uint64(h.Len)))+4) + int64(h.Len)
		if herr != nil || need <= n || off+need > end {
			return fmt.Errorf("%w: entry at offset %d: %v", ErrCorrupt, off, err)
		}
		buf = make([]byte, need)
	}
	return nil
}

// formatAt is the frame of the entry at off in a log whose Var frames start
// at varFrom: Var past the layout marker, Seq before it.
func formatAt(varFrom, off int64) frame.Format {
	if varFrom > 0 && off >= varFrom {
		return frame.Var
	}
	return frame.Seq
}

// CorruptEntry models a format-aware insider with direct disk access: it
// rewrites the payload of the entry at off in the log at path, applying
// mutate and recomputing a valid CRC, so only a check above the WAL can
// catch the edit. mutate must keep the payload's length.
func CorruptEntry(fsys faultfs.FS, path string, off int64, mutate func([]byte) []byte) error {
	data, err := readFile(fsys, path)
	if err != nil {
		return err
	}
	var found *Entry
	varFrom, _, err := walk(data, func(e Entry) error {
		if e.Off == off {
			found = &e
		}
		return nil
	})
	if err != nil {
		return err
	}
	if found == nil {
		return fmt.Errorf("%w: no entry at offset %d", ErrCorrupt, off)
	}
	mutated := mutate(bytes.Clone(found.Data))
	if len(mutated) != len(found.Data) {
		return fmt.Errorf("wal: CorruptEntry must preserve length: %d != %d", len(mutated), len(found.Data))
	}
	copy(data[off:], formatAt(varFrom, off).Append(nil, found.Seq, mutated))
	return fsys.WriteFile(path, data, 0o600)
}

// Checkpoint atomically empties the log after its state has been durably
// captured elsewhere (e.g. blockstore sync). Sequence numbering restarts at
// zero: sequences are per-checkpoint-generation, and a replay only ever sees
// the entries appended since the last checkpoint. Checkpoint first makes
// every Durable entry written durable (drain).
//
// Checkpoint is failure-atomic: the replacement file is built, synced, and
// renamed into place before the live handle is touched, so if any step fails
// the log keeps its current contents and Append keeps working. (An earlier
// version closed the live handle first, leaving the log permanently broken
// when the rename failed.)
func (l *Log) Checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drain()
	switch {
	case l.closed:
		return ErrClosed
	case l.wedged != nil:
		return l.wedged
	}
	// Build the empty replacement without touching the live handle. The tmp
	// handle is kept open: after the rename it refers to the live log file
	// (rename moves the name, the descriptor follows the inode), so no
	// reopen — which could itself fail — is needed.
	tmp := l.path + ".tmp"
	nf, err := l.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("wal: checkpoint temp: %w", err)
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: checkpoint temp sync: %w", err)
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		nf.Close()
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	old := l.f
	l.f = nf
	l.size, l.written, l.varFrom = 0, 0, 0
	l.nextSeq = 0
	_ = old.Close() // best-effort; the handle points at the unlinked old file
	metCheckpoints.Inc()
	return nil
}

// Close closes the log file after draining it.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.drain()
	l.closed = true
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}
