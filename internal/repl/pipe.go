package repl

import (
	"net"
	"sync"

	"medvault/internal/frame"
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

// Pipe is the in-process replication link: the primary's end of a
// net.Pipe whose far end runs ServeConn for a follower — the loop medvaultd
// -follow runs per TCP connection. A Session over it writes, reads and
// applies the same bytes a TCP link carries; only the kill script is extra.
//
// The script counts op frames as the session writes them (one Write per
// frame) and kills the primary by closing this end, as the kernel does for
// a dead process. net.Pipe has no buffer, so a Write returns only once the
// follower's loop holds the whole frame, and one Read receives a whole
// response: every kill point is deterministic.
type Pipe struct {
	net.Conn
	done chan struct{} // closed when the follower's loop returns

	mu       sync.Mutex
	opFrames int
	killAt   int
	killMode KillMode
	armed    KillMode // a kill due on the response to the current op frame
	killed   bool
}

// NewPipe starts a follower loop for f and returns the primary's end.
func NewPipe(f *Follower) *Pipe {
	near, far := net.Pipe()
	p := &Pipe{Conn: near, done: make(chan struct{}), killAt: -1}
	go func() {
		defer close(p.done)
		_ = ServeConn(far, f)
	}()
	return p
}

// KillAtFrame scripts the primary's death at the n-th op frame (0-based),
// at the given boundary.
func (p *Pipe) KillAtFrame(n int, mode KillMode) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.killAt, p.killMode = n, mode
}

// OpFrames returns how many op frames have been shipped — run a workload
// with no kill script and this is the stream-boundary kill-point count.
func (p *Pipe) OpFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.opFrames
}

// Killed reports whether the scripted death has fired.
func (p *Pipe) Killed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killed
}

// Kill closes the primary's end, if the script has not already, and waits
// for the follower's loop to return: after it the follower is quiescent and
// may be promoted.
func (p *Pipe) Kill() {
	p.Conn.Close()
	<-p.done
}

// kill is the scripted death; callers hold p.mu.
func (p *Pipe) kill() error {
	p.killed = true
	p.Conn.Close()
	return ErrPrimaryKilled
}

// Write counts op frames and fires KillSend, or arms the kill modes that
// land on the response.
func (p *Pipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	if !p.killed && len(b) > frame.Seq.Overhead()+8 && b[frame.Seq.Overhead()+8] == frameOp { // the kind after the epoch
		if p.opFrames == p.killAt {
			p.armed = p.killMode
		}
		p.opFrames++
	}
	if p.killed || p.armed == KillSend {
		defer p.mu.Unlock()
		return 0, p.kill()
	}
	p.mu.Unlock()
	return p.Conn.Write(b)
}

// Read fires an armed kill: KillApply before the follower's ack is read,
// KillAfterAck once it has been.
func (p *Pipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	armed := p.armed
	p.armed = KillNone
	if p.killed || armed == KillApply {
		defer p.mu.Unlock()
		return 0, p.kill()
	}
	p.mu.Unlock()
	n, err := p.Conn.Read(b)
	if armed == KillAfterAck {
		p.mu.Lock()
		p.kill() // this op succeeded; the next write finds a corpse
		p.mu.Unlock()
	}
	return n, err
}
