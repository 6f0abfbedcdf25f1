// Package repl streams a primary vault's durable writes to a warm follower
// and proves the failover path with the same torture discipline the local
// crash-recovery harness uses.
//
// The replication unit is the filesystem operation, not the WAL record: a
// CaptureFS sits between the vault and its disk, and every mutating op that
// succeeds on the primary's medium is shipped byte-for-byte to the follower,
// which applies it into an identical directory tree. The follower therefore
// holds, at every op boundary, exactly the state the primary's disk would
// show after a power cut at that boundary — a state the crash torture matrix
// has already proven recoverable. Promotion is nothing more exotic than
// opening that directory: the vault's own recovery replays the WAL tail,
// discards torn frames, and rebuilds derived state.
//
// Commit visibility is what makes "acked implies replicated" hold: the vault
// acknowledges a write only after the WAL's group-commit fsync, and a
// shipped op returns only after the follower's ack, so an fsync cannot
// succeed before the follower holds it and everything shipped before it.
//
// One Session carries every link: medvaultd dials it over TCP, and the
// failover torture, the simulator and the tests run it over a Pipe, an
// in-process net.Pipe whose far end runs the same ServeConn loop a
// follower runs per TCP connection. Every frame, on every transport, is
// written by frame.Seq.Append and read by readFrame.
//
// Anti-entropy is one check, the handshake: Hello compares the two nodes'
// directory digests and resyncs the follower when they differ. The primary
// runs it at connect and on every timer round under the capture's op
// freeze, so it covers every replicated byte. A resync is no second
// protocol: it rewrites the follower's tree as ordinary op frames (a
// RemoveAll of the root, then a MkdirAll per directory and an Open, Write
// and Sync per file), and a second Hello requires the digests to agree.
//
// Epoch fencing keeps a demoted primary from committing after failover:
// every frame carries the primary's epoch, the follower persists the highest
// epoch it has accepted (repl.state), and Promote bumps it. A stale primary's
// frames are rejected, the rejection is audited, and the rejected fsync
// wedges its WAL.
//
// The wire format reuses the WAL's entry framing (seq | len | crc32c | data),
// so a torn final frame on the stream is detected and discarded by the exact
// validation path that truncates a torn WAL tail after a power cut.
package repl

import (
	"encoding/binary"
	"errors"
	"os"

	"medvault/internal/frame"
	"medvault/internal/obs"
)

// Errors surfaced by the replication layer.
var (
	// ErrPrimaryKilled is returned by a Pipe after its scripted kill point:
	// the primary process is dead and no further ops will ship.
	ErrPrimaryKilled = errors.New("repl: primary killed at stream boundary")
	// ErrFenced indicates the follower rejected a frame because the sender's
	// epoch is stale — a newer primary has been promoted.
	ErrFenced = errors.New("repl: fenced by newer epoch")
	// ErrBadFrame indicates a structurally invalid frame payload. The
	// connection carrying it cannot be trusted and must be dropped, but the
	// follower itself stays healthy and will accept the next connection.
	ErrBadFrame = errors.New("repl: malformed frame")
)

// StateFile is the name of the epoch file at the vault/replica root. It is
// local identity, not vault state: it is written outside the captured
// filesystem, excluded from resync and from dir digests, and never shipped.
const StateFile = "repl.state"

// Frame payload kinds. Every payload is u64 epoch | u8 kind | body; the
// outer framing (seq, length, checksum) is the WAL's, via internal/frame.
const (
	frameHello    uint8 = iota + 1 // primary → follower: handshake, epoch proposal
	frameHelloAck                  // follower → primary: epoch, dir digest
	frameOp                        // primary → follower: one captured fs op
	frameAck                       // follower → primary: op applied through LSN
	_                              // 5, retired: signed tree heads
	_                              // 6, retired: the follower's computed heads
	_                              // 7, retired: snapshot begin
	_                              // 8, retired: snapshot file
	_                              // 9, retired: snapshot end
	frameReject                    // follower → primary: frame refused (stale epoch, promoted)
)

// Captured filesystem op kinds — the mutating subset of faultfs.FS plus
// handle writes and syncs. opTraceMark is the one non-fs kind: an
// observability marker carrying the originating trace ID of a committed
// vault mutation, so the primary's write is joinable to its apply event in
// the follower's flight recorder. It has no filesystem effect and therefore
// no bearing on dir digests or anti-entropy.
const (
	opOpen uint8 = iota + 1
	opWrite
	opSync
	opRename
	opRemove
	opRemoveAll
	opTruncate
	opMkdirAll
	opWriteFile
	opTraceMark
)

// OpRecord is one captured filesystem operation. Path (and Old, for renames)
// are relative to the replicated root on both sides.
type OpRecord struct {
	Kind  uint8
	Path  string
	Old   string // rename: previous path
	Flags uint32 // open: os.OpenFile flags, as wireFlags encodes them
	Perm  uint32 // open/mkdirall/writefile: permission bits
	Size  uint64 // truncate: new size
	Data  []byte // write/writefile: payload
}

// wireFlags fixes every open flag a vault uses at its Linux value on the
// wire, so a primary and a follower on different platforms read an open
// alike; Capture encodes os.O_* with flagsToWire, the follower decodes with
// flagsFromWire.
var wireFlags = [...]struct {
	os   int
	wire uint32
}{
	{os.O_WRONLY, 0x1}, {os.O_RDWR, 0x2}, {os.O_CREATE, 0x40},
	{os.O_EXCL, 0x80}, {os.O_TRUNC, 0x200}, {os.O_APPEND, 0x400},
}

func flagsToWire(flag int) (w uint32) {
	for _, f := range wireFlags {
		if flag&f.os != 0 {
			w |= f.wire
		}
	}
	return w
}

func flagsFromWire(w uint32) (flag int) {
	for _, f := range wireFlags {
		if w&f.wire != 0 {
			flag |= f.os
		}
	}
	return flag
}

// Replication metrics, on the process-wide registry like every other layer.
var (
	mFramesSent = obs.Default.Counter("medvault_repl_frames_sent_total",
		"Replication op frames shipped by the primary.")
	mFramesAcked = obs.Default.Counter("medvault_repl_frames_acked_total",
		"Replication op frames acknowledged by the follower.")
	mFramesApplied = obs.Default.Counter("medvault_repl_frames_applied_total",
		"Replication op frames applied by the follower.")
	mLagFrames = obs.Default.Gauge("medvault_repl_lag_frames",
		"Captured ops applied locally but not shipped while the follower link is down; 0 after a handshake or resync.")
	mResyncs = obs.Default.Counter("medvault_repl_resyncs_total",
		"Full directory resyncs triggered by anti-entropy.")
	mFenceRejections = obs.Default.Counter("medvault_repl_fence_rejections_total",
		"Frames rejected because the sender's epoch was stale.")
)

// --- payload codec -------------------------------------------------------
//
// Bodies are written and read with internal/frame's field codec: big-endian
// fixed ints, u32-length-prefixed strings and byte fields, matching the outer
// framing's endianness. Decoders report ok=false for a short, over-long or
// unknown body; the caller turns that into ErrBadFrame.

// payload assembles epoch | kind | body.
func payload(epoch uint64, kind uint8, body []byte) []byte {
	out := make([]byte, 0, 9+len(body))
	out = binary.BigEndian.AppendUint64(out, epoch)
	out = append(out, kind)
	return append(out, body...)
}

// splitPayload separates the epoch header and kind from the body.
func splitPayload(p []byte) (epoch uint64, kind uint8, body []byte, ok bool) {
	if len(p) < 9 {
		return 0, 0, nil, false
	}
	return binary.BigEndian.Uint64(p), p[8], p[9:], true
}

func encodeOp(rec OpRecord) []byte {
	b := frame.AppendStr([]byte{rec.Kind}, rec.Path)
	switch rec.Kind {
	case opOpen:
		b = binary.BigEndian.AppendUint32(b, rec.Flags)
		b = binary.BigEndian.AppendUint32(b, rec.Perm)
	case opWrite:
		b = frame.AppendBytes(b, rec.Data)
	case opRename:
		b = frame.AppendStr(b, rec.Old)
	case opTruncate:
		b = binary.BigEndian.AppendUint64(b, rec.Size)
	case opMkdirAll:
		b = binary.BigEndian.AppendUint32(b, rec.Perm)
	case opWriteFile:
		b = binary.BigEndian.AppendUint32(b, rec.Perm)
		b = frame.AppendBytes(b, rec.Data)
	case opTraceMark:
		// Path carries the record token; Old the trace ID; Data the
		// vault op name ("put", "correct", "shred"). All observability-plane
		// values — no plaintext.
		b = frame.AppendStr(b, rec.Old)
		b = frame.AppendBytes(b, rec.Data)
	}
	return b
}

func decodeOp(body []byte) (OpRecord, bool) {
	r := frame.NewReader(body)
	rec := OpRecord{Kind: r.U8(), Path: r.Str()}
	switch rec.Kind {
	case opOpen:
		rec.Flags = r.U32()
		rec.Perm = r.U32()
	case opWrite:
		rec.Data = r.Bytes()
	case opSync, opRemove, opRemoveAll:
	case opRename:
		rec.Old = r.Str()
	case opTruncate:
		rec.Size = r.U64()
	case opMkdirAll:
		rec.Perm = r.U32()
	case opWriteFile:
		rec.Perm = r.U32()
		rec.Data = r.Bytes()
	case opTraceMark:
		rec.Old = r.Str()
		rec.Data = r.Bytes()
	default:
		return OpRecord{}, false
	}
	return rec, r.Done() == nil
}

// encodeHelloAck carries the follower's epoch and its dir digest —
// everything the primary needs for anti-entropy.
func encodeHelloAck(epoch uint64, digest [32]byte) []byte {
	return append(binary.BigEndian.AppendUint64(nil, epoch), digest[:]...)
}

func decodeHelloAck(body []byte) (epoch uint64, digest [32]byte, ok bool) {
	r := frame.NewReader(body)
	epoch = r.U64()
	r.Fixed(digest[:])
	return epoch, digest, r.Done() == nil
}

func encodeReject(epoch uint64, reason string) []byte {
	return frame.AppendStr(binary.BigEndian.AppendUint64(nil, epoch), reason)
}

func decodeReject(body []byte) (epoch uint64, reason string, ok bool) {
	r := frame.NewReader(body)
	epoch = r.U64()
	reason = r.Str()
	return epoch, reason, r.Done() == nil
}
