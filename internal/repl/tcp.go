package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
	"medvault/internal/merkle"
	"medvault/internal/vcrypto"
)

// TCPSession is the network transport: each frame is written with the WAL's
// length-and-checksum framing and answered synchronously by the follower.
// Request/response keeps the protocol identical to the pipe the torture
// harness proves; the cost is one round trip per op, which the group-commit
// batching above the WAL already amortizes.
type TCPSession struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	seq  uint64
	src  faultfs.FS
	root string
	addr string
}

var _ Session = (*TCPSession)(nil)

// DialTCP connects to a follower's replication listener. src/root name the
// primary's raw filesystem and replicated directory, used for resync reads.
func DialTCP(addr string, src faultfs.FS, root string) (*TCPSession, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("repl: dialing follower %s: %w", addr, err)
	}
	return &TCPSession{
		conn: conn,
		br:   bufio.NewReader(conn),
		src:  src,
		root: root,
		addr: addr,
	}, nil
}

// redial replaces a dead connection; callers hold s.mu.
func (s *TCPSession) redialLocked() error {
	if s.conn != nil {
		s.conn.Close()
	}
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		s.conn = nil
		return fmt.Errorf("repl: redialing follower %s: %w", s.addr, err)
	}
	s.conn = conn
	s.br = bufio.NewReader(conn)
	return nil
}

// roundTrip writes one frame and reads one response frame. Any transport
// error poisons the connection; the capture's degraded-mode reconnect path
// calls Hello again, which redials.
func (s *TCPSession) roundTrip(pl []byte) ([]byte, error) {
	if s.conn == nil {
		return nil, errors.New("repl: session disconnected")
	}
	out := frame.Append(nil, s.seq, pl)
	s.seq++
	if _, err := s.conn.Write(out); err != nil {
		s.conn.Close()
		s.conn = nil
		return nil, fmt.Errorf("repl: writing frame: %w", err)
	}
	_, resp, err := readFrame(s.br)
	if err != nil {
		s.conn.Close()
		s.conn = nil
		return nil, fmt.Errorf("repl: reading response: %w", err)
	}
	return resp, nil
}

// maxFrameSize caps what readFrame will allocate from a claimed length, so
// a corrupt or hostile length field cannot demand an arbitrary allocation.
// The largest legitimate frame is one resync snapshot file.
const maxFrameSize = 1 << 30

// readFrame collects one complete frame from r: the header names the total
// size, and frame.Decode validates the result — the same check that
// truncates a torn WAL tail, so a stream cut mid-frame surfaces as
// io.ErrUnexpectedEOF here and the partial frame is never acted on.
func readFrame(r io.Reader) (seq uint64, data []byte, err error) {
	hdr := make([]byte, frame.Overhead)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	total, ok := frame.Size(hdr)
	if !ok || total < frame.Overhead || total > maxFrameSize {
		return 0, nil, ErrBadFrame
	}
	buf := make([]byte, total)
	copy(buf, hdr)
	if _, err := io.ReadFull(r, buf[frame.Overhead:]); err != nil {
		return 0, nil, err
	}
	seq, data, _, ok = frame.Decode(buf)
	if !ok {
		return 0, nil, ErrBadFrame
	}
	return seq, data, nil
}

// Hello implements Session, redialing first if the link died.
func (s *TCPSession) Hello(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		if err := s.redialLocked(); err != nil {
			return err
		}
	}
	return helloExchange(s.roundTrip, s.src, s.root, epoch)
}

// ShipOp implements Session.
func (s *TCPSession) ShipOp(epoch uint64, rec OpRecord) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lsn := s.seq
	if _, err := roundTripAck(s.roundTrip, payload(epoch, frameOp, encodeOp(rec))); err != nil {
		return 0, err
	}
	return lsn, nil
}

// Barrier implements Session; acks are synchronous on this transport.
func (s *TCPSession) Barrier(uint64) error { return nil }

// Heads implements Session.
func (s *TCPSession) Heads(epoch uint64, pub vcrypto.PublicKey, sths []merkle.SignedTreeHead) ([]Head, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return headsExchange(s.roundTrip, epoch, pub, sths)
}

// Resync implements Session.
func (s *TCPSession) Resync(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return resyncSend(s.roundTrip, s.src, s.root, epoch)
}

// Close implements Session.
func (s *TCPSession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return nil
	}
	err := s.conn.Close()
	s.conn = nil
	return err
}

// Serve accepts replication connections for f, one primary at a time — a
// follower replicates exactly one primary, so connections are served
// sequentially and a new connection's Hello naturally supersedes a dead
// predecessor. Serve returns when the listener closes.
func Serve(l net.Listener, f *Follower, logf func(string, ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if err := ServeConn(conn, f); err != nil {
			logf("repl: connection from %s dropped: %v", conn.RemoteAddr(), err)
		}
	}
}

// ServeConn drives one replication connection: frames in, responses out. A
// clean disconnect — including one that tears the final frame — returns
// nil: the partial frame is discarded by the WAL codec's validation exactly
// as local recovery discards a torn tail, and the primary's next connection
// resynchronizes anything the tear lost. Corrupt frames and apply failures
// return an error; either way the follower remains healthy for the next
// connection.
func ServeConn(conn net.Conn, f *Follower) error {
	defer conn.Close()
	defer f.ResetConn()
	br := bufio.NewReader(conn)
	var outSeq uint64
	for {
		seq, data, err := readFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil // stream ended (possibly mid-frame): torn tail discarded
			}
			return err
		}
		resp, err := f.HandlePayload(seq, data)
		if err != nil {
			return err
		}
		if _, err := conn.Write(frame.Append(nil, outSeq, resp)); err != nil {
			return fmt.Errorf("repl: writing response: %w", err)
		}
		outSeq++
	}
}

// ListenAndServe listens on addr and serves replication connections until
// the process exits.
func ListenAndServe(addr string, f *Follower, logf func(string, ...any)) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("repl: listening on %s: %w", addr, err)
	}
	return Serve(l, f, logf)
}
