package repl

import (
	"medvault/internal/faultfs"
	"medvault/internal/frame"
	"medvault/internal/merkle"
	"medvault/internal/vcrypto"
)

// KillMode selects where, relative to one op frame's round trip, a scripted
// primary death lands. These are the stream boundaries the failover torture
// enumerates; the fs-op boundaries are covered separately by faultfs crash
// injection under the capture.
type KillMode int

const (
	// KillNone disables the kill script.
	KillNone KillMode = iota
	// KillSend kills the primary before the frame leaves: the follower
	// never sees the op.
	KillSend
	// KillApply kills the primary after the follower applies the op but
	// before the ack arrives: the follower is ahead of what the primary
	// observed.
	KillApply
	// KillAfterAck kills the primary just after the full round trip: the op
	// succeeded, the next one will not.
	KillAfterAck
)

// Pipe is the in-process transport: fully synchronous, no goroutines, every
// frame delivered (or killed) deterministically — the property the torture
// harness needs to enumerate kill points reproducibly. Frames still round-
// trip through the WAL codec, so the encode/validate path under test is the
// same one TCP uses.
type Pipe struct {
	f    *Follower
	src  faultfs.FS
	root string

	seq      uint64
	ackedSeq uint64 // highest op-frame seq whose ack the primary has read
	opFrames int
	killAt   int
	killMode KillMode
	killed   bool
}

var _ Session = (*Pipe)(nil)

// NewPipe connects a primary (whose raw filesystem and replicated root are
// src/root, used for resync reads) to an in-process follower.
func NewPipe(f *Follower, src faultfs.FS, root string) *Pipe {
	return &Pipe{f: f, src: src, root: root, killAt: -1}
}

// KillAtFrame scripts the primary's death at the n-th op frame (0-based),
// at the given boundary.
func (p *Pipe) KillAtFrame(n int, mode KillMode) {
	p.killAt = n
	p.killMode = mode
}

// OpFrames returns how many op frames have been shipped — run a workload
// with no kill script and this is the stream-boundary kill-point count.
func (p *Pipe) OpFrames() int { return p.opFrames }

// Killed reports whether the scripted death has fired.
func (p *Pipe) Killed() bool { return p.killed }

// roundTrip frames a payload, delivers it through the shared WAL codec, and
// returns the follower's response payload.
func (p *Pipe) roundTrip(pl []byte) ([]byte, error) {
	if p.killed {
		return nil, ErrPrimaryKilled
	}
	seq, data, _, ok := frame.Decode(frame.Append(nil, p.seq, pl))
	p.seq++
	if !ok {
		return nil, ErrBadFrame
	}
	return p.f.HandlePayload(seq, data)
}

// Hello implements Session.
func (p *Pipe) Hello(epoch uint64) error {
	return helloExchange(p.roundTrip, p.src, p.root, epoch)
}

// ShipOp implements Session, applying the kill script at op-frame
// boundaries.
func (p *Pipe) ShipOp(epoch uint64, rec OpRecord) (uint64, error) {
	if p.killed {
		return 0, ErrPrimaryKilled
	}
	n := p.opFrames
	p.opFrames++
	killHere := n == p.killAt && p.killMode != KillNone
	if killHere && p.killMode == KillSend {
		p.killed = true
		return 0, ErrPrimaryKilled
	}
	lsn := p.seq
	resp, err := p.roundTrip(payload(epoch, frameOp, encodeOp(rec)))
	if err != nil {
		return 0, err
	}
	if killHere && p.killMode == KillApply {
		// The follower applied and acked, but the primary dies before the
		// ack is read.
		p.killed = true
		return 0, ErrPrimaryKilled
	}
	if _, err := expectKind(resp, frameAck); err != nil {
		return 0, err
	}
	p.ackedSeq = lsn
	if killHere && p.killMode == KillAfterAck {
		p.killed = true // this op succeeded; the next call finds a corpse
	}
	return lsn, nil
}

// Barrier implements Session; the pipe is synchronous, so an ack the
// primary has read stays valid even if the scripted death fired right after
// it — only un-acked work is lost.
func (p *Pipe) Barrier(lsn uint64) error {
	if lsn <= p.ackedSeq {
		return nil
	}
	if p.killed {
		return ErrPrimaryKilled
	}
	return nil
}

// Heads implements Session.
func (p *Pipe) Heads(epoch uint64, pub vcrypto.PublicKey, sths []merkle.SignedTreeHead) ([]Head, error) {
	return headsExchange(p.roundTrip, epoch, pub, sths)
}

// Resync implements Session.
func (p *Pipe) Resync(epoch uint64) error {
	return resyncSend(p.roundTrip, p.src, p.root, epoch)
}

// Close implements Session.
func (p *Pipe) Close() error { return nil }
