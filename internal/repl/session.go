package repl

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
	"medvault/internal/obs"
)

// Session is the primary's end of one replication link: every frame it
// sends is written by frame.Seq.Append, answered by exactly one frame from the
// follower's ServeConn loop, and read back by readFrame. medvaultd runs it
// over TCP (DialTCP); the torture harness, the simulator and the tests run
// it over an in-process Pipe. The bytes are the same.
//
// Hello performs the handshake, which is the one anti-entropy check: it
// proposes the primary's epoch, compares the two sides' directory digests,
// and runs a full resync if they differ (a fresh follower, a torn stream, a
// lost link or a damaged replica all land here). ShipOp ships one captured
// fs op and returns only after the follower's ack, so a shipped fsync
// cannot succeed before the follower holds it.
type Session struct {
	mu     sync.Mutex
	conn   net.Conn // nil once the link has failed
	br     *bufio.Reader
	redial func() (net.Conn, error)
	seq    uint64
	src    faultfs.FS
	root   string
}

// NewSession starts a session over conn. src/root name the primary's raw
// filesystem and replicated directory, read for resyncs. redial, when set,
// replaces a failed connection at the next Hello; nil leaves it down.
func NewSession(conn net.Conn, redial func() (net.Conn, error), src faultfs.FS, root string) *Session {
	return &Session{conn: conn, br: bufio.NewReader(conn), redial: redial, src: src, root: root}
}

// DialTCP connects to a follower's replication listener; a failed link is
// redialed at the next Hello.
func DialTCP(addr string, src faultfs.FS, root string) (*Session, error) {
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	conn, err := dial()
	if err != nil {
		return nil, fmt.Errorf("repl: dialing follower %s: %w", addr, err)
	}
	return NewSession(conn, dial, src, root), nil
}

// roundTrip writes one frame and reads its response; callers hold s.mu.
// Any transport error drops the connection, and the capture's degraded-mode
// reconnect calls Hello again, which redials.
func (s *Session) roundTrip(pl []byte) ([]byte, error) {
	if s.conn == nil {
		return nil, errors.New("repl: session disconnected")
	}
	out := frame.Seq.Append(nil, s.seq, pl)
	s.seq++
	if _, err := s.conn.Write(out); err != nil {
		s.closeLocked()
		return nil, fmt.Errorf("repl: writing frame: %w", err)
	}
	_, resp, err := readFrame(s.br)
	if err != nil {
		s.closeLocked()
		return nil, fmt.Errorf("repl: reading response: %w", err)
	}
	return resp, nil
}

// exchange sends a payload and returns the body of a response of kind
// want, mapping reject frames to ErrFenced.
func (s *Session) exchange(pl []byte, want uint8) ([]byte, error) {
	resp, err := s.roundTrip(pl)
	if err != nil {
		return nil, err
	}
	_, kind, body, ok := splitPayload(resp)
	if !ok {
		return nil, ErrBadFrame
	}
	if kind == frameReject {
		if epoch, reason, ok := decodeReject(body); ok {
			return nil, fmt.Errorf("%w: follower at epoch %d: %s", ErrFenced, epoch, reason)
		}
		return nil, ErrFenced
	}
	if kind != want {
		return nil, fmt.Errorf("%w: unexpected response kind %d", ErrBadFrame, kind)
	}
	return body, nil
}

// ack sends a payload and requires a plain ack back.
func (s *Session) ack(pl []byte) error {
	body, err := s.exchange(pl, frameAck)
	if err != nil {
		return err
	}
	r := frame.NewReader(body)
	r.U64()
	if r.Done() != nil {
		return ErrBadFrame
	}
	return nil
}

// Hello runs the handshake and anti-entropy, redialing first if the link
// failed. The primary hashes its tree while the follower hashes its own;
// byte-identical trees need no resync. Callers keep the tree still (the
// capture's op freeze, or no writer yet). It returns ErrFenced when the
// follower has seen a newer epoch.
func (s *Session) Hello(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil && s.redial != nil {
		conn, err := s.redial()
		if err != nil {
			return fmt.Errorf("repl: redialing follower: %w", err)
		}
		s.conn, s.br = conn, bufio.NewReader(conn)
	}
	var (
		tree   []walkEntry
		digest [32]byte
		werr   error
	)
	walked := make(chan struct{})
	go func() {
		defer close(walked)
		if tree, werr = walkTree(s.src, s.root); werr == nil {
			digest = treeDigest(tree)
		}
	}()
	fdigest, err := s.helloLocked(epoch)
	<-walked
	if err != nil {
		return err
	}
	if werr != nil {
		return fmt.Errorf("repl: walking %s: %w", s.root, werr)
	}
	if digest == fdigest {
		return nil
	}
	return s.resyncLocked(epoch, tree, digest)
}

// helloLocked proposes epoch and returns the follower's directory digest.
func (s *Session) helloLocked(epoch uint64) ([32]byte, error) {
	body, err := s.exchange(payload(epoch, frameHello, nil), frameHelloAck)
	if err != nil {
		return [32]byte{}, err
	}
	fepoch, fdigest, ok := decodeHelloAck(body)
	if !ok {
		return [32]byte{}, ErrBadFrame
	}
	if fepoch > epoch {
		return [32]byte{}, fmt.Errorf("%w: follower at epoch %d, primary at %d", ErrFenced, fepoch, epoch)
	}
	return fdigest, nil
}

// ShipOp ships one captured fs op and waits for the follower's ack.
func (s *Session) ShipOp(epoch uint64, rec OpRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ack(payload(epoch, frameOp, encodeOp(rec)))
}

// resyncLocked rewrites the follower's tree as ordinary acked ops: a
// RemoveAll of the root (the follower keeps its node-local names), then a
// MkdirAll per directory and, per file, the Open, Write and Sync a
// primary's own write of it ships. A second Hello then requires the
// follower's digest to be the primary's.
func (s *Session) resyncLocked(epoch uint64, tree []walkEntry, digest [32]byte) error {
	ops := []OpRecord{{Kind: opRemoveAll, Path: "."}}
	for _, e := range tree {
		if e.isDir {
			ops = append(ops, OpRecord{Kind: opMkdirAll, Path: e.rel, Perm: 0o700})
			continue
		}
		ops = append(ops, OpRecord{Kind: opOpen, Path: e.rel, Flags: flagsToWire(os.O_WRONLY | os.O_CREATE | os.O_TRUNC), Perm: 0o600})
		if len(e.data) > 0 {
			ops = append(ops, OpRecord{Kind: opWrite, Path: e.rel, Data: e.data})
		}
		ops = append(ops, OpRecord{Kind: opSync, Path: e.rel})
	}
	for _, rec := range ops {
		if err := s.ack(payload(epoch, frameOp, encodeOp(rec))); err != nil {
			return err
		}
	}
	fdigest, err := s.helloLocked(epoch)
	if err != nil {
		return err
	}
	if fdigest != digest {
		return errors.New("repl: resync digest mismatch")
	}
	mResyncs.Inc()
	return nil
}

// Close closes the connection.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Session) closeLocked() error {
	if s.conn == nil {
		return nil
	}
	err := s.conn.Close()
	s.conn = nil
	return err
}

// --- epoch state ---------------------------------------------------------

// readEpoch loads the persisted epoch from dir/repl.state; absent means
// fallback. The file is plain "epoch N\n" — it must be inspectable from a
// shell during an incident.
func readEpoch(fsys faultfs.FS, dir string, fallback uint64) (uint64, error) {
	data, err := fsys.ReadFile(path.Join(dir, StateFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fallback, nil
		}
		return 0, fmt.Errorf("repl: reading %s: %w", StateFile, err)
	}
	s := strings.TrimSpace(strings.TrimPrefix(string(data), "epoch"))
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: corrupt %s: %q", StateFile, data)
	}
	return n, nil
}

// writeEpoch persists the epoch durably: write-tmp, sync, rename. The write
// goes through the raw filesystem — the epoch is a node's identity, not
// replicated vault state.
func writeEpoch(fsys faultfs.FS, dir string, epoch uint64) error {
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("repl: creating %s: %w", dir, err)
	}
	data := []byte(fmt.Sprintf("epoch %d\n", epoch))
	if err := faultfs.WriteFileAtomic(fsys, path.Join(dir, StateFile), data, 0o600); err != nil {
		return fmt.Errorf("repl: writing %s: %w", StateFile, err)
	}
	return nil
}

// --- directory walk and digest -------------------------------------------

// walkEntry is one node of a replicated directory tree.
type walkEntry struct {
	rel   string
	isDir bool
	data  []byte // nil for dirs
}

// nodeLocal reports whether a top-level name under the replicated root
// belongs to this node alone: its epoch file (and that file's tmp) and the
// postmortem bundles medvaultd writes outside the capture. Neither node
// digests, ships or wipes them.
func nodeLocal(name string) bool {
	return name == StateFile || name == StateFile+".tmp" || name == obs.PostmortemDir
}

// walkTree lists root's tree depth-first in name order, relative paths with
// forward slashes, skipping node-local names. A missing root yields an
// empty tree — a fresh node.
func walkTree(fsys faultfs.FS, root string) ([]walkEntry, error) {
	var out []walkEntry
	var walk func(dir, rel string) error
	walk = func(dir, rel string) error {
		ents, err := fsys.ReadDir(dir)
		if err != nil {
			return err
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name() < ents[j].Name() })
		for _, e := range ents {
			name := e.Name()
			if rel == "" && nodeLocal(name) {
				continue
			}
			childRel := name
			if rel != "" {
				childRel = rel + "/" + name
			}
			child := path.Join(dir, name)
			if e.IsDir() {
				out = append(out, walkEntry{rel: childRel, isDir: true})
				if err := walk(child, childRel); err != nil {
					return err
				}
				continue
			}
			data, err := fsys.ReadFile(child)
			if err != nil {
				return err
			}
			out = append(out, walkEntry{rel: childRel, data: data})
		}
		return nil
	}
	if err := walk(root, ""); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	return out, nil
}

// DirDigest hashes the full content of root's tree (paths, types, bytes),
// excluding node-local names. Two nodes with equal digests hold
// byte-identical replicated state.
func DirDigest(fsys faultfs.FS, root string) ([32]byte, error) {
	tree, err := walkTree(fsys, root)
	if err != nil {
		return [32]byte{}, err
	}
	return treeDigest(tree), nil
}

// treeDigest is DirDigest over an already walked tree.
func treeDigest(tree []walkEntry) (out [32]byte) {
	h := sha256.New()
	for _, e := range tree {
		kind := byte(0)
		if e.isDir {
			kind = 1
		}
		h.Write([]byte{kind})
		h.Write(frame.AppendStr(nil, e.rel))
		h.Write(frame.AppendCount(nil, len(e.data)))
		h.Write(e.data)
	}
	h.Sum(out[:0])
	return out
}
