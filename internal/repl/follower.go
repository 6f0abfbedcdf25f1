package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"sync"

	"medvault/internal/faultfs"
	"medvault/internal/obs"
)

// Follower applies a primary's captured fs ops into its own replica
// directory and answers the replication protocol. It needs no keys: it
// mirrors bytes, verifies structure (framing, sequence, epoch, digests), and
// answers each Hello with the digest of its tree for anti-entropy.
//
// A follower survives bad input by dropping the connection, never by
// wedging: a malformed or torn frame ends the current stream, and the next
// connection's Hello re-establishes consistency (resyncing if the tear lost
// anything). Only Promote ends its life as a follower — after it, every
// frame from the old primary is rejected as stale.
type Follower struct {
	mu   sync.Mutex
	fsys faultfs.FS
	root string

	epoch    uint64 // highest epoch accepted, persisted in repl.state
	promoted bool

	nextSeq uint64 // expected next frame seq on the current connection

	handles map[string]faultfs.File // open append handles, keyed by rel path

	appliedLSN uint64
	fenceAudit func(detail string)
	flight     *obs.Flight // apply-side flight recorder (never nil)
}

// NewFollower prepares a follower over root on fsys, loading any persisted
// epoch. A fresh follower starts at epoch 0 so it accepts any primary.
func NewFollower(fsys faultfs.FS, root string) (*Follower, error) {
	epoch, err := readEpoch(fsys, root, 0)
	if err != nil {
		return nil, err
	}
	return &Follower{
		fsys:    fsys,
		root:    root,
		epoch:   epoch,
		handles: make(map[string]faultfs.File),
		flight:  obs.DefaultFlight,
	}, nil
}

// Epoch returns the highest epoch this node has accepted or been promoted to.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// AppliedLSN returns the last op frame sequence applied.
func (f *Follower) AppliedLSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appliedLSN
}

// SetFenceAuditor installs the hook that records stale-epoch rejections in
// an audit chain. After promotion the caller wires this to the promoted
// vault's AuditReplicationFence, so a split-brain attempt leaves evidence in
// the journal of the surviving side.
func (f *Follower) SetFenceAuditor(fn func(detail string)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fenceAudit = fn
}

// Promote ends this node's life as a follower: it closes replication
// handles, bumps and persists the epoch (fencing the old primary), and
// returns the new epoch. The caller then opens the replica directory as a
// normal vault — recovery replays the WAL tail exactly as it would after a
// local power cut, which is the "replay any tail" half of failover.
func (f *Follower) Promote() (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropHandlesLocked()
	f.epoch++
	if err := writeEpoch(f.fsys, f.root, f.epoch); err != nil {
		f.epoch--
		return 0, err
	}
	f.promoted = true
	return f.epoch, nil
}

// resetConn runs when ServeConn's connection ends: buffered partial state
// is dropped and open handles are closed. The next Hello resynchronizes
// whatever a torn stream failed to deliver.
func (f *Follower) resetConn() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropHandlesLocked()
}

// handlePayload processes one frame readFrame validated (seq from the outer
// framing, p the decoded payload) and returns exactly one response payload.
// A nil error with a reject response is a protocol-level refusal (stale
// epoch, promoted node); a non-nil error is connection-fatal — ServeConn
// drops the stream, but the follower itself stays serviceable.
func (f *Follower) handlePayload(seq uint64, p []byte) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()

	epoch, kind, body, ok := splitPayload(p)
	if !ok {
		return nil, fmt.Errorf("%w: short payload", ErrBadFrame)
	}

	// Epoch fencing comes before anything else. Hello may raise our epoch;
	// every frame below it must match or beat what we have accepted.
	if f.promoted {
		return f.rejectLocked(epoch, "node promoted to primary"), nil
	}
	if kind == frameHello {
		if epoch < f.epoch {
			return f.rejectLocked(epoch, "stale epoch"), nil
		}
		if epoch > f.epoch {
			if err := writeEpoch(f.fsys, f.root, epoch); err != nil {
				return nil, err
			}
			f.epoch = epoch
		}
		f.nextSeq = seq + 1
		f.dropHandlesLocked()
		digest, err := DirDigest(f.fsys, f.root)
		if err != nil {
			return nil, fmt.Errorf("repl: follower digest: %w", err)
		}
		return f.respLocked(frameHelloAck, encodeHelloAck(f.epoch, digest)), nil
	}
	if epoch < f.epoch {
		return f.rejectLocked(epoch, "stale epoch"), nil
	}
	if seq != f.nextSeq {
		return nil, fmt.Errorf("%w: frame seq %d, want %d", ErrBadFrame, seq, f.nextSeq)
	}
	f.nextSeq = seq + 1

	switch kind {
	case frameOp:
		rec, ok := decodeOp(body)
		if !ok {
			return nil, fmt.Errorf("%w: op frame", ErrBadFrame)
		}
		if err := f.applyLocked(rec); err != nil {
			return nil, fmt.Errorf("repl: applying %s %q: %w", opName(rec.Kind), rec.Path, err)
		}
		f.appliedLSN = seq
		mFramesApplied.Inc()
		return f.respLocked(frameAck, binary.BigEndian.AppendUint64(nil, seq)), nil
	default:
		return nil, fmt.Errorf("%w: unknown frame kind %d", ErrBadFrame, kind)
	}
}

// rejectLocked builds a reject response, counts it, and audits it when an
// auditor is wired (the promoted side's journal records the attempt).
func (f *Follower) rejectLocked(staleEpoch uint64, reason string) []byte {
	mFenceRejections.Inc()
	if f.fenceAudit != nil {
		f.fenceAudit(fmt.Sprintf("replication frame rejected: %s (sender epoch %d, local epoch %d)",
			reason, staleEpoch, f.epoch))
	}
	return f.respLocked(frameReject, encodeReject(f.epoch, reason))
}

func (f *Follower) respLocked(kind uint8, body []byte) []byte {
	return payload(f.epoch, kind, body)
}

// --- op application ------------------------------------------------------

// applyLocked replays one captured fs op. Writes and syncs address files by
// relative path through a handle cache (opened append-mode on demand —
// primaries only ever append through handles); any namespace op invalidates
// the cache so renamed or truncated files are reopened fresh.
func (f *Follower) applyLocked(rec OpRecord) error {
	p := path.Join(f.root, rec.Path)
	switch rec.Kind {
	case opOpen:
		f.closeHandleLocked(rec.Path)
		h, err := f.fsys.OpenFile(p, flagsFromWire(rec.Flags), fs.FileMode(rec.Perm))
		if err != nil {
			return err
		}
		f.handles[rec.Path] = h
		return nil
	case opWrite:
		h, err := f.handleLocked(rec.Path)
		if err != nil {
			return err
		}
		_, err = h.Write(rec.Data)
		return err
	case opSync:
		h, err := f.handleLocked(rec.Path)
		if err != nil {
			return err
		}
		return h.Sync()
	case opRename:
		f.dropHandlesLocked()
		return f.fsys.Rename(path.Join(f.root, rec.Old), p)
	case opRemove:
		f.dropHandlesLocked()
		return f.fsys.Remove(p)
	case opRemoveAll:
		if rec.Path == "." {
			return f.wipeLocked() // a resync's first op
		}
		f.dropHandlesLocked()
		return f.fsys.RemoveAll(p)
	case opTruncate:
		f.dropHandlesLocked()
		return f.fsys.Truncate(p, int64(rec.Size))
	case opMkdirAll:
		return f.fsys.MkdirAll(p, fs.FileMode(rec.Perm))
	case opWriteFile:
		f.closeHandleLocked(rec.Path)
		return f.fsys.WriteFile(p, rec.Data, fs.FileMode(rec.Perm))
	case opTraceMark:
		// Observability marker, no fs effect: record the primary's trace ID
		// against this replica so the apply is joinable to the originating
		// request. Path is the record token, Old the trace, Data the op.
		f.flight.Record(obs.FlightEvent{
			Kind:    "repl.apply",
			Record:  rec.Path,
			Trace:   rec.Old,
			Outcome: "ok",
			Detail:  string(rec.Data),
		})
		return nil
	default:
		return fmt.Errorf("%w: op kind %d", ErrBadFrame, rec.Kind)
	}
}

// handleLocked returns the cached handle for rel, opening append-mode when
// the open frame predates this connection (after a reconnect or rename).
func (f *Follower) handleLocked(rel string) (faultfs.File, error) {
	if h, ok := f.handles[rel]; ok {
		return h, nil
	}
	h, err := f.fsys.OpenFile(path.Join(f.root, rel), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return nil, err
	}
	f.handles[rel] = h
	return h, nil
}

func (f *Follower) closeHandleLocked(rel string) {
	if h, ok := f.handles[rel]; ok {
		h.Close()
		delete(f.handles, rel)
	}
}

func (f *Follower) dropHandlesLocked() {
	for rel, h := range f.handles {
		h.Close()
		delete(f.handles, rel)
	}
}

// wipeLocked clears the replica tree, preserving only node-local names: a
// RemoveAll of the replicated root, which a resync starts with.
func (f *Follower) wipeLocked() error {
	f.dropHandlesLocked()
	ents, err := f.fsys.ReadDir(f.root)
	if err != nil {
		if isNotExist(err) {
			return f.fsys.MkdirAll(f.root, 0o700)
		}
		return err
	}
	for _, e := range ents {
		if nodeLocal(e.Name()) {
			continue
		}
		if err := f.fsys.RemoveAll(path.Join(f.root, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// opName names an op kind for error messages.
func opName(k uint8) string {
	switch k {
	case opOpen:
		return "open"
	case opWrite:
		return "write"
	case opSync:
		return "sync"
	case opRename:
		return "rename"
	case opRemove:
		return "remove"
	case opRemoveAll:
		return "removeall"
	case opTruncate:
		return "truncate"
	case opMkdirAll:
		return "mkdirall"
	case opWriteFile:
		return "writefile"
	case opTraceMark:
		return "tracemark"
	}
	return "unknown"
}
