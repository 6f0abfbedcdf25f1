package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"

	"medvault/internal/frame"
)

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
	defer f.resetConn()
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
		resp, err := f.handlePayload(seq, data)
		if err != nil {
			return err
		}
		if _, err := conn.Write(frame.Append(nil, outSeq, resp)); err != nil {
			return fmt.Errorf("repl: writing response: %w", err)
		}
		outSeq++
	}
}
