package repl

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"path"
	"sort"
	"strconv"
	"strings"

	"medvault/internal/core"
	"medvault/internal/faultfs"
	"medvault/internal/frame"
	"medvault/internal/merkle"
	"medvault/internal/vcrypto"
)

// Session is the primary's handle on one replication connection. Both
// transports — the deterministic in-process pipe the torture harness drives
// and the length-framed TCP stream medvaultd uses — implement it.
//
// Hello performs the handshake and connect-time anti-entropy: it proposes
// the primary's epoch, compares the two sides' computed Merkle heads and
// directory digests, and runs a full resync if they disagree (a fresh
// follower, a torn stream, or divergence all land here). ShipOp ships one
// captured fs op and returns its LSN; Barrier blocks until the follower has
// acknowledged that LSN — CaptureFS calls it on every fsync, which is what
// makes an acked client write a replicated one. Heads runs the timer-driven
// signed-head exchange; Resync forces a full directory transfer.
type Session interface {
	Hello(epoch uint64) error
	ShipOp(epoch uint64, rec OpRecord) (lsn uint64, err error)
	Barrier(lsn uint64) error
	Heads(epoch uint64, pub vcrypto.PublicKey, sths []merkle.SignedTreeHead) ([]Head, error)
	Resync(epoch uint64) error
	Close() error
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

// walkTree lists root's tree depth-first in name order, relative paths with
// forward slashes, skipping the top-level repl.state (and its tmp). A
// missing root yields an empty tree — a fresh node.
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
			if rel == "" && (name == StateFile || name == StateFile+".tmp") {
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
// excluding repl.state. Two nodes with equal digests hold byte-identical
// replicated state.
func DirDigest(fsys faultfs.FS, root string) ([32]byte, error) {
	tree, err := walkTree(fsys, root)
	if err != nil {
		return [32]byte{}, err
	}
	h := sha256.New()
	for _, e := range tree {
		kind := byte(0)
		if e.isDir {
			kind = 1
		}
		h.Write([]byte{kind})
		h.Write(frame.AppendStr(nil, e.rel))
		h.Write(frame.AppendBytes(nil, e.data))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out, nil
}

// localHeads computes this side's per-shard Merkle heads from raw files.
func localHeads(fsys faultfs.FS, root string) ([]Head, error) {
	rh, err := core.ReplicaHeads(fsys, root)
	if err != nil {
		return nil, err
	}
	out := make([]Head, len(rh))
	for i, h := range rh {
		out[i] = Head{Size: h.Size, Root: h.Root}
	}
	return out, nil
}

// headsEqual is exact equality — the connect-time criterion, where no writes
// are in flight and any difference means the follower must resync.
func headsEqual(a, b []Head) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- shared exchange logic ------------------------------------------------
//
// Both transports are synchronous request/response streams (every frame the
// primary sends is answered by exactly one follower frame), so the handshake
// and resync logic is written once against a roundTrip function.

type roundTripper func(payload []byte) (resp []byte, err error)

// expectKind decodes a response payload and maps reject frames to ErrFenced.
func expectKind(resp []byte, want uint8) (body []byte, err error) {
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

// helloExchange runs the handshake plus connect-time anti-entropy: propose
// the epoch, compare heads and digests, resync on any mismatch. It returns
// ErrFenced when the follower has seen a newer epoch.
func helloExchange(rt roundTripper, src faultfs.FS, root string, epoch uint64) error {
	resp, err := rt(payload(epoch, frameHello, nil))
	if err != nil {
		return err
	}
	body, err := expectKind(resp, frameHelloAck)
	if err != nil {
		return err
	}
	fepoch, fheads, fdigest, ok := decodeHelloAck(body)
	if !ok {
		return ErrBadFrame
	}
	if fepoch > epoch {
		return fmt.Errorf("%w: follower at epoch %d, primary at %d", ErrFenced, fepoch, epoch)
	}
	heads, err := localHeads(src, root)
	if err != nil {
		return fmt.Errorf("repl: computing local heads: %w", err)
	}
	digest, err := DirDigest(src, root)
	if err != nil {
		return fmt.Errorf("repl: computing local digest: %w", err)
	}
	if headsEqual(heads, fheads) && digest == fdigest {
		return nil
	}
	return resyncSend(rt, src, root, epoch)
}

// resyncSend transfers the primary's full tree: snapBegin wipes the replica,
// one snapFile per node, snapEnd carries the expected digest so the follower
// verifies the transfer before trusting it.
func resyncSend(rt roundTripper, src faultfs.FS, root string, epoch uint64) error {
	tree, err := walkTree(src, root)
	if err != nil {
		return fmt.Errorf("repl: walking %s for resync: %w", root, err)
	}
	digest, err := DirDigest(src, root)
	if err != nil {
		return err
	}
	if _, err := roundTripAck(rt, payload(epoch, frameSnapBegin, nil)); err != nil {
		return err
	}
	for _, e := range tree {
		if _, err := roundTripAck(rt, payload(epoch, frameSnapFile, encodeSnapFile(e.isDir, e.rel, e.data))); err != nil {
			return err
		}
	}
	if _, err := roundTripAck(rt, payload(epoch, frameSnapEnd, digest[:])); err != nil {
		return err
	}
	mResyncs.Inc()
	return nil
}

// roundTripAck sends a payload and requires a plain ack back.
func roundTripAck(rt roundTripper, p []byte) (lsn uint64, err error) {
	resp, err := rt(p)
	if err != nil {
		return 0, err
	}
	body, err := expectKind(resp, frameAck)
	if err != nil {
		return 0, err
	}
	r := frame.NewReader(body)
	lsn = r.U64()
	if r.Done() != nil {
		return 0, ErrBadFrame
	}
	return lsn, nil
}

// headsExchange ships the primary's signed heads and returns the follower's
// computed heads for the caller to judge.
func headsExchange(rt roundTripper, epoch uint64, pub vcrypto.PublicKey, sths []merkle.SignedTreeHead) ([]Head, error) {
	resp, err := rt(payload(epoch, frameHeads, encodeHeadsReq(pub, sths)))
	if err != nil {
		return nil, err
	}
	body, err := expectKind(resp, frameHeadsAck)
	if err != nil {
		return nil, err
	}
	r := frame.NewReader(body)
	hs := readHeads(r)
	if r.Done() != nil {
		return nil, ErrBadFrame
	}
	return hs, nil
}
