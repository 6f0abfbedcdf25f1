package repl

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path"
	"strings"
	"sync"
	"time"

	"medvault/internal/faultfs"
	"medvault/internal/obs"
)

// Capture is the primary-side replication seam: a faultfs.FS that applies
// every operation to the inner filesystem and, when the inner medium accepts
// it, ships the identical op to the follower. Because only ops that
// succeeded locally are shipped, the follower's directory is always a state
// the primary's disk actually passed through, at an op boundary — which is
// precisely the class of states the crash torture matrix proves recoverable.
//
// One mutex serializes every mutating op across the whole tree, holding it
// over (apply + ship) as a unit. That is what makes the shipped op order
// equal the applied op order when the vault's shards write concurrently; it
// also gives anti-entropy a frozen tree to digest and resync from. Reads
// bypass the lock entirely.
//
// Two failure modes:
//
//   - Strict (the torture harness): the first ship failure latches the
//     capture dead and every later op fails — a killed primary stays killed,
//     so the workload aborts exactly at the kill point.
//   - Degraded (medvaultd): a ship failure logs, marks the link down, and
//     lets the op succeed locally; the next anti-entropy round's Hello
//     redials and resyncs whatever the outage missed. A fence rejection is
//     the exception — it always fails the op, never latches, and never
//     degrades: a stale primary must not keep committing just because its
//     link still works.
type Capture struct {
	inner faultfs.FS
	raw   faultfs.FS // bypasses capture for repl.state (node identity)
	root  string
	sess  *Session

	strict bool
	logf   func(string, ...any)

	mu        sync.Mutex
	dead      error
	connected bool
	epoch     uint64
	files     map[*captureFile]struct{}
	stopTimer func() // stops the anti-entropy timer and waits for it
}

// Config configures a Capture.
type Config struct {
	// Session is the connection to the follower; NewCapture performs the
	// Hello handshake (and any resync it decides on) before returning.
	Session *Session
	// Root is the replicated directory; ops under it ship with relative
	// paths, ops outside it apply locally only.
	Root string
	// Raw is the filesystem the epoch state file is read and written
	// through, bypassing capture and fault injection; nil means inner.
	Raw faultfs.FS
	// Strict selects the torture failure mode (see type comment).
	Strict bool
	// Logf receives degraded-mode diagnostics; nil discards them.
	Logf func(string, ...any)
}

var _ faultfs.FS = (*Capture)(nil)

// NewCapture wraps inner, loads (or initializes) the primary's epoch, and
// runs the handshake. A primary starts at epoch 1; a restarted primary keeps
// its persisted epoch, so one demoted by a follower's promotion finds itself
// fenced on reconnect rather than silently diverging.
func NewCapture(inner faultfs.FS, cfg Config) (*Capture, error) {
	c := &Capture{
		inner:  inner,
		raw:    cfg.Raw,
		root:   cfg.Root,
		sess:   cfg.Session,
		strict: cfg.Strict,
		logf:   cfg.Logf,
		files:  make(map[*captureFile]struct{}),
	}
	if c.raw == nil {
		c.raw = inner
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	epoch, err := readEpoch(c.raw, c.root, 0)
	if err != nil {
		return nil, err
	}
	if epoch == 0 {
		epoch = 1
		if err := writeEpoch(c.raw, c.root, epoch); err != nil {
			return nil, err
		}
	}
	c.epoch = epoch
	if err := c.sess.Hello(c.epoch); err != nil {
		return nil, err
	}
	c.connected = true
	mLagFrames.Set(0)
	return c, nil
}

// Epoch returns the primary's replication epoch.
func (c *Capture) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Connected reports whether the replication link is up (degraded mode may
// run with it down).
func (c *Capture) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.connected
}

// StartAntiEntropy begins the timer-driven anti-entropy: every interval the
// primary freezes ops and runs the handshake, which redials a downed link
// and resyncs a follower whose directory digest differs from the primary's.
// Close stops it.
func (c *Capture) StartAntiEntropy(interval time.Duration) {
	c.mu.Lock()
	if c.stopTimer != nil {
		c.mu.Unlock()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	c.stopTimer = func() {
		close(stop)
		<-done
	}
	c.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := c.antiEntropyRound(); err != nil {
					c.logf("repl: anti-entropy: %v", err)
				}
			}
		}
	}()
}

// antiEntropyRound runs one handshake under the op freeze, with a trace
// recording the round and its outcome.
func (c *Capture) antiEntropyRound() (err error) {
	_, tr := obs.DefaultTracer.Start(context.Background(), "repl.anti_entropy", "")
	defer func() { obs.DefaultTracer.Finish(tr, err) }()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return nil
	}
	if err = c.sess.Hello(c.epoch); err != nil {
		if c.connected {
			err = c.shipFailureLocked(err)
		}
		return err
	}
	if !c.connected {
		c.logf("repl: follower link restored")
	}
	c.connected = true
	mLagFrames.Set(0)
	return nil
}

// Close stops the anti-entropy timer, waiting out a round in progress, and
// closes the session.
func (c *Capture) Close() error {
	c.mu.Lock()
	stop := c.stopTimer
	c.stopTimer = nil
	c.mu.Unlock()
	if stop != nil {
		stop()
	}
	return c.sess.Close()
}

// rel maps an absolute-ish path to its replicated relative form; ok is
// false for paths outside the root (never shipped).
func (c *Capture) rel(p string) (string, bool) {
	p = path.Clean(p)
	if p == c.root {
		return ".", true
	}
	if strings.HasPrefix(p, c.root+"/") {
		return p[len(c.root)+1:], true
	}
	return "", false
}

// shipLocked sends one op record and honors the failure mode. Callers hold
// c.mu and have already applied the op to the inner fs. ShipOp returns only
// after the follower's ack, so a shipped fsync — the one the vault treats as
// its commit — cannot succeed before the follower holds everything up to
// and including it.
func (c *Capture) shipLocked(rec OpRecord) error {
	if !c.connected {
		mLagFrames.Add(1) // degraded: the next anti-entropy round resyncs
		return nil
	}
	mFramesSent.Inc()
	if err := c.sess.ShipOp(c.epoch, rec); err != nil {
		return c.shipFailureLocked(err)
	}
	mFramesAcked.Inc()
	return nil
}

// shipFailureLocked implements the failure modes. It returns the error the
// fs op should surface (nil in degraded mode for non-fence failures).
func (c *Capture) shipFailureLocked(err error) error {
	if errors.Is(err, ErrFenced) {
		// Never latch, never degrade: each attempt must be rejected (and
		// audited on the follower) individually, and the op must fail so the
		// stale primary's WAL wedges instead of committing.
		c.logf("repl: write fenced: %v", err)
		return err
	}
	if c.strict {
		c.dead = err
		return err
	}
	c.connected = false
	c.logf("repl: follower link lost (continuing unreplicated): %v", err)
	return nil
}

// mutate wraps a mutating fs op: freeze, check the latch, apply, ship.
func (c *Capture) mutate(apply func() error, rec OpRecord, shipIt bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return c.dead
	}
	if err := apply(); err != nil {
		return err
	}
	if !shipIt {
		return nil
	}
	return c.shipLocked(rec)
}

// ShipTrace implements core.TraceShipper: it forwards the originating trace
// ID of a committed vault mutation as an opTraceMark frame, so the
// follower's flight recorder can join its apply events back to the
// primary's request. Pure observability: a ship failure here follows the
// capture's normal failure mode but never fails a vault operation (the
// caller ignores it by contract — the op already committed).
func (c *Capture) ShipTrace(trace, op, recordHash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return
	}
	_ = c.shipLocked(OpRecord{Kind: opTraceMark, Path: recordHash, Old: trace, Data: []byte(op)})
}

// --- faultfs.FS ----------------------------------------------------------

// OpenFile implements faultfs.FS. Opens that can change state ship to the
// follower and return a handle whose writes and syncs ship too; read-only
// opens pass straight through.
func (c *Capture) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	const mutating = os.O_WRONLY | os.O_RDWR | os.O_CREATE | os.O_TRUNC | os.O_APPEND
	rel, under := c.rel(name)
	if flag&mutating == 0 || !under {
		return c.inner.OpenFile(name, flag, perm)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return nil, c.dead
	}
	h, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if err := c.shipLocked(OpRecord{Kind: opOpen, Path: rel, Flags: flagsToWire(flag), Perm: uint32(perm)}); err != nil {
		h.Close()
		return nil, err
	}
	cf := &captureFile{c: c, inner: h, rel: rel}
	c.files[cf] = struct{}{}
	return cf, nil
}

// ReadFile implements faultfs.FS.
func (c *Capture) ReadFile(name string) ([]byte, error) { return c.inner.ReadFile(name) }

// WriteFile implements faultfs.FS.
func (c *Capture) WriteFile(name string, data []byte, perm fs.FileMode) error {
	rel, under := c.rel(name)
	return c.mutate(func() error { return c.inner.WriteFile(name, data, perm) },
		OpRecord{Kind: opWriteFile, Path: rel, Perm: uint32(perm), Data: data}, under)
}

// Rename implements faultfs.FS. Open handles on the old path keep shipping
// under the new name — the WAL checkpoint renames its file and keeps
// appending through the same handle, and the follower must see those
// appends land on the renamed file.
func (c *Capture) Rename(oldpath, newpath string) error {
	relOld, underOld := c.rel(oldpath)
	relNew, underNew := c.rel(newpath)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return c.dead
	}
	if err := c.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	for cf := range c.files {
		if cf.rel == relOld {
			cf.rel = relNew
		}
	}
	if !underOld || !underNew {
		return nil
	}
	return c.shipLocked(OpRecord{Kind: opRename, Path: relNew, Old: relOld})
}

// Remove implements faultfs.FS.
func (c *Capture) Remove(name string) error {
	rel, under := c.rel(name)
	return c.mutate(func() error { return c.inner.Remove(name) },
		OpRecord{Kind: opRemove, Path: rel}, under)
}

// RemoveAll implements faultfs.FS.
func (c *Capture) RemoveAll(name string) error {
	rel, under := c.rel(name)
	return c.mutate(func() error { return c.inner.RemoveAll(name) },
		OpRecord{Kind: opRemoveAll, Path: rel}, under)
}

// Truncate implements faultfs.FS.
func (c *Capture) Truncate(name string, size int64) error {
	rel, under := c.rel(name)
	return c.mutate(func() error { return c.inner.Truncate(name, size) },
		OpRecord{Kind: opTruncate, Path: rel, Size: uint64(size)}, under)
}

// MkdirAll implements faultfs.FS.
func (c *Capture) MkdirAll(name string, perm fs.FileMode) error {
	rel, under := c.rel(name)
	return c.mutate(func() error { return c.inner.MkdirAll(name, perm) },
		OpRecord{Kind: opMkdirAll, Path: rel, Perm: uint32(perm)}, under)
}

// ReadDir implements faultfs.FS.
func (c *Capture) ReadDir(name string) ([]fs.DirEntry, error) { return c.inner.ReadDir(name) }

// Stat implements faultfs.FS.
func (c *Capture) Stat(name string) (fs.FileInfo, error) { return c.inner.Stat(name) }

// captureFile ships a mutating handle's writes and syncs.
type captureFile struct {
	c     *Capture
	inner faultfs.File
	rel   string // current replicated path; rewritten by Rename
}

var _ faultfs.File = (*captureFile)(nil)

func (h *captureFile) Write(p []byte) (int, error) {
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return 0, c.dead
	}
	n, err := h.inner.Write(p)
	if err != nil {
		return n, err
	}
	if err := c.shipLocked(OpRecord{Kind: opWrite, Path: h.rel, Data: p}); err != nil {
		return 0, err
	}
	return n, nil
}

func (h *captureFile) ReadAt(p []byte, off int64) (int, error) { return h.inner.ReadAt(p, off) }

func (h *captureFile) Sync() error {
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return c.dead
	}
	if err := h.inner.Sync(); err != nil {
		return err
	}
	return c.shipLocked(OpRecord{Kind: opSync, Path: h.rel})
}

func (h *captureFile) Close() error {
	c := h.c
	c.mu.Lock()
	delete(c.files, h)
	c.mu.Unlock()
	return h.inner.Close()
}
