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
// The largest legitimate frame is one resynced file: a Write op carrying
// the whole file.
const maxFrameSize = 1 << 30

// readFrame collects one complete frame from r: the header names the
// payload's length, bounded before anything is sized by it, and the
// payload's CRC is checked before the frame is returned — the check that
// cuts a torn WAL tail, so a stream cut mid-frame surfaces as
// io.ErrUnexpectedEOF here and the partial frame is never acted on.
func readFrame(r io.Reader) (seq uint64, data []byte, err error) {
	hdr := make([]byte, frame.Seq.Overhead())
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	h, err := frame.Seq.Header(hdr)
	if err != nil || len(hdr)+int(h.Len) > maxFrameSize {
		return 0, nil, ErrBadFrame
	}
	data = make([]byte, h.Len)
	if _, err := io.ReadFull(r, data); err != nil {
		return 0, nil, err
	}
	if h.Check(data) != nil {
		return 0, nil, ErrBadFrame
	}
	return h.Seq, data, nil
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
		if _, err := conn.Write(frame.Seq.Append(nil, outSeq, resp)); err != nil {
			return fmt.Errorf("repl: writing response: %w", err)
		}
		outSeq++
	}
}
