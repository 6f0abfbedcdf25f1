package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"medvault/internal/authz"
	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/frame"
	"medvault/internal/obs"
	"medvault/internal/vcrypto"
	"medvault/internal/wal"
)

const testRoot = "vault"

func testMaster(t *testing.T) vcrypto.Key {
	t.Helper()
	var seed [32]byte
	copy(seed[:], "medvault-repl-test-master-seed32")
	k, err := vcrypto.KeyFromBytes(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// openVault opens a test vault over fsys with a physician and a compliance
// officer registered.
func openVault(t *testing.T, fsys faultfs.FS, shards int) *core.Cluster {
	t.Helper()
	vc := clock.NewVirtual(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	v, err := core.Open(core.Config{
		Name: "repl-test", Master: testMaster(t), Clock: vc, Dir: testRoot, FS: fsys, Shards: shards,
	})
	if err != nil {
		t.Fatalf("opening vault: %v", err)
	}
	a := v.Authz()
	for _, r := range authz.StandardRoles() {
		a.DefineRole(r)
	}
	for id, role := range map[string]string{"dr-house": "physician", "officer-kim": "compliance-officer"} {
		if err := a.AddPrincipal(id, role); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

func testRecord(id string, n int) ehr.Record {
	return ehr.Record{
		ID: id, Patient: "Pat Repl", MRN: "mrn-" + id, Category: ehr.CategoryClinical,
		Author: "dr-house", CreatedAt: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
		Title: "note " + id, Body: fmt.Sprintf("replicated body %s v%d", id, n),
	}
}

// link opens an in-process link to fol; the test waits for the follower's
// loop on it at cleanup.
func link(t *testing.T, fol *Follower) *Pipe {
	p := NewPipe(fol)
	t.Cleanup(p.Kill)
	return p
}

// hello runs a fresh primary's handshake (its raw disk is src) against fol.
func hello(t *testing.T, fol *Follower, src faultfs.FS, epoch uint64) error {
	return NewSession(link(t, fol), nil, src, testRoot).Hello(epoch)
}

// pair wires a fresh primary/follower pair over an in-process link.
func pair(t *testing.T) (pmem, fmem *faultfs.Mem, fol *Follower, pipe *Pipe, cap *Capture) {
	t.Helper()
	pmem, fmem = faultfs.NewMem(), faultfs.NewMem()
	var err error
	fol, err = NewFollower(fmem, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	pipe = link(t, fol)
	cap, err = NewCapture(pmem, Config{Session: NewSession(pipe, nil, pmem, testRoot), Root: testRoot, Raw: pmem, Strict: true})
	if err != nil {
		t.Fatalf("capture handshake: %v", err)
	}
	return pmem, fmem, fol, pipe, cap
}

// TestReplicateAndPromote is the happy path: every committed write is on the
// follower byte-for-byte, and the promoted vault serves it with a clean
// integrity sweep.
func TestReplicateAndPromote(t *testing.T) {
	pmem, fmem, fol, pipe, cap := pair(t)
	v := openVault(t, cap, 1)
	for i := 0; i < 3; i++ {
		if _, err := v.PutCtx(context.Background(), "dr-house", testRecord(fmt.Sprintf("rec-%d", i), 1)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if _, err := v.CorrectCtx(context.Background(), "dr-house", testRecord("rec-1", 2)); err != nil {
		t.Fatalf("correct: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	pd, err := DirDigest(pmem, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := DirDigest(fmem, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	if pd != fd {
		t.Fatalf("follower diverged from primary after graceful shutdown")
	}

	pipe.Kill()
	if _, err := fol.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	pv := openVault(t, fmem, 1)
	defer pv.Close()
	rec, _, err := pv.GetCtx(context.Background(), "dr-house", "rec-1")
	if err != nil {
		t.Fatalf("reading from promoted vault: %v", err)
	}
	if rec.Body != testRecord("rec-1", 2).Body {
		t.Fatalf("promoted vault served stale body %q", rec.Body)
	}
	if _, err := pv.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll on promoted vault: %v", err)
	}
}

// TestConnectResync: attaching replication to a vault that already has
// history must bring a fresh follower to byte-identity during the
// handshake — incremental shipping alone cannot (recovery reads, pre-attach
// writes, and already-open appends are invisible to the capture).
func TestConnectResync(t *testing.T) {
	pmem := faultfs.NewMem()
	v := openVault(t, pmem, 1)
	if _, err := v.PutCtx(context.Background(), "dr-house", testRecord("old-rec", 1)); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	fmem := faultfs.NewMem()
	fol, err := NewFollower(fmem, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	pipe := link(t, fol)
	cap, err := NewCapture(pmem, Config{Session: NewSession(pipe, nil, pmem, testRoot), Root: testRoot, Raw: pmem, Strict: true})
	if err != nil {
		t.Fatalf("handshake over existing vault: %v", err)
	}
	pd, _ := DirDigest(pmem, testRoot)
	fd, _ := DirDigest(fmem, testRoot)
	if pd != fd {
		t.Fatal("connect-time anti-entropy did not resync the follower")
	}

	// New writes ship incrementally on top of the resynced base.
	v2 := openVault(t, cap, 1)
	if _, err := v2.PutCtx(context.Background(), "dr-house", testRecord("new-rec", 1)); err != nil {
		t.Fatal(err)
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
	pipe.Kill()
	if _, err := fol.Promote(); err != nil {
		t.Fatal(err)
	}
	pv := openVault(t, fmem, 1)
	defer pv.Close()
	for _, id := range []string{"old-rec", "new-rec"} {
		if _, _, err := pv.GetCtx(context.Background(), "dr-house", id); err != nil {
			t.Fatalf("promoted vault missing %s: %v", id, err)
		}
	}
}

// TestResyncShipsOrdinaryOps: a resync is op frames on the one stream — a
// RemoveAll of the root, a MkdirAll per directory, an Open, Write and Sync
// per file. A follower holding extra files, a changed file and its own
// repl.state converges in one Hello with repl.state untouched, and one whose
// resync stream is torn part-way converges at the next Hello.
func TestResyncShipsOrdinaryOps(t *testing.T) {
	pmem := faultfs.NewMem()
	v := openVault(t, pmem, 1)
	if _, err := v.PutCtx(context.Background(), "dr-house", testRecord("rec-0", 1)); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	tree, err := walkTree(pmem, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 // the RemoveAll
	for _, e := range tree {
		switch {
		case e.isDir:
			want++
		case len(e.data) == 0:
			want += 2
		default:
			want += 3
		}
	}
	pd := treeDigest(tree)

	fmem := faultfs.NewMem()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(writeEpoch(fmem, testRoot, 3))
	must(fmem.MkdirAll(testRoot+"/stray/deep", 0o700))
	must(fmem.WriteFile(testRoot+"/stray/deep/seg-9.blk", []byte("orphan"), 0o600))
	must(fmem.WriteFile(testRoot+"/extra.tmp", []byte("left behind"), 0o600))
	must(fmem.WriteFile(testRoot+"/meta.wal", []byte("a different history"), 0o600))
	fol, err := NewFollower(fmem, testRoot)
	must(err)
	converged := func(when string) {
		t.Helper()
		fd, err := DirDigest(fmem, testRoot)
		must(err)
		if fd != pd {
			t.Fatalf("%s: follower digest differs from the primary's", when)
		}
		if state, err := fmem.ReadFile(testRoot + "/" + StateFile); err != nil || string(state) != "epoch 3\n" {
			t.Fatalf("%s: follower %s = %q, %v; want it untouched", when, StateFile, state, err)
		}
	}

	before := mResyncs.Value()
	pipe := link(t, fol)
	must(NewSession(pipe, nil, pmem, testRoot).Hello(3))
	if got := mResyncs.Value() - before; got != 1 {
		t.Fatalf("%v resyncs, want 1", got)
	}
	if got := pipe.OpFrames(); got != want {
		t.Errorf("resync shipped %d op frames, want %d", got, want)
	}
	converged("one Hello")

	must(fmem.WriteFile(testRoot+"/meta.wal", []byte("diverged again"), 0o600))
	torn := link(t, fol)
	torn.KillAtFrame(want/2, KillApply)
	if err := NewSession(torn, nil, pmem, testRoot).Hello(3); !errors.Is(err, ErrPrimaryKilled) {
		t.Fatalf("Hello over a stream torn mid-resync = %v, want ErrPrimaryKilled", err)
	}
	torn.Kill()
	if fd, _ := DirDigest(fmem, testRoot); fd == pd {
		t.Fatal("a resync torn half-way left the follower converged; the tear tested nothing")
	}
	must(hello(t, fol, pmem, 3))
	converged("the Hello after a torn resync")
}

// serveTCP runs the follower's listener on a loopback port; stop closes it
// and waits for Serve, and with it the last connection's loop, to return.
func serveTCP(t *testing.T, fol *Follower) (addr string, stop func()) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		Serve(l, fol, t.Logf)
	}()
	stop = func() {
		l.Close()
		<-served
	}
	t.Cleanup(stop)
	return l.Addr().String(), stop
}

// TestTCPTransport runs the same replication flow over a real TCP socket.
func TestTCPTransport(t *testing.T) {
	fmem := faultfs.NewMem()
	fol, err := NewFollower(fmem, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := serveTCP(t, fol)

	pmem := faultfs.NewMem()
	sess, err := DialTCP(addr, pmem, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	cap, err := NewCapture(pmem, Config{Session: sess, Root: testRoot, Raw: pmem, Strict: true})
	if err != nil {
		t.Fatalf("TCP handshake: %v", err)
	}
	v := openVault(t, cap, 2)
	for i := 0; i < 4; i++ {
		if _, err := v.PutCtx(context.Background(), "dr-house", testRecord(fmt.Sprintf("tcp-%d", i), 1)); err != nil {
			t.Fatalf("put over TCP replication: %v", err)
		}
	}
	// One anti-entropy round over the wire: identical trees, no resync.
	before := mResyncs.Value()
	if err := cap.antiEntropyRound(); err != nil {
		t.Fatalf("anti-entropy round over TCP: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	cap.Close()
	if mResyncs.Value() != before {
		t.Fatal("a round over identical trees must not resync")
	}

	stop()
	if _, err := fol.Promote(); err != nil {
		t.Fatal(err)
	}
	pv := openVault(t, fmem, 2)
	defer pv.Close()
	if _, _, err := pv.GetCtx(context.Background(), "dr-house", "tcp-3"); err != nil {
		t.Fatalf("promoted vault after TCP replication: %v", err)
	}
}

// byteWorkload drives a capture the way a vault does — a WAL appended and
// synced through one handle, a snapshot written and renamed into place, a
// truncate, a removal, a whole-file write and a trace mark — with the same
// bytes on every run.
func byteWorkload(t *testing.T, c *Capture) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.MkdirAll(testRoot+"/blocks", 0o700))
	wal, err := c.OpenFile(testRoot+"/meta.wal", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	must(err)
	for i := 0; i < 20; i++ {
		_, err := wal.Write([]byte(fmt.Sprintf("entry %02d|", i)))
		must(err)
		must(wal.Sync())
	}
	must(c.WriteFile(testRoot+"/meta.snap.tmp", []byte("snapshot"), 0o600))
	must(c.Rename(testRoot+"/meta.snap.tmp", testRoot+"/meta.snap"))
	must(c.Truncate(testRoot+"/meta.wal", 30))
	_, err = wal.Write([]byte("after truncate"))
	must(err)
	must(wal.Sync())
	must(wal.Close())
	must(c.WriteFile(testRoot+"/blocks/seg-0", []byte("ciphertext"), 0o600))
	must(c.Remove(testRoot + "/meta.snap"))
	c.ShipTrace("0123456789abcdef", "put", "a1b2c3d4e5f6")
}

// TestOneBytePath runs one workload over the in-process link and over a
// loopback TCP link: the same frames reach the same follower loop either
// way, so the followers end byte-identical after the same number of op
// frames. The primary starts with history, so both handshakes resync too.
func TestOneBytePath(t *testing.T) {
	run := func(t *testing.T, overTCP bool) (digest [32]byte, frames uint64) {
		pmem, fmem := faultfs.NewMem(), faultfs.NewMem()
		if err := pmem.MkdirAll(testRoot, 0o700); err != nil {
			t.Fatal(err)
		}
		if err := pmem.WriteFile(testRoot+"/principals.conf", []byte("dr-house physician\n"), 0o600); err != nil {
			t.Fatal(err)
		}
		fol, err := NewFollower(fmem, testRoot)
		if err != nil {
			t.Fatal(err)
		}
		var sess *Session
		var stop func()
		if overTCP {
			var addr string
			addr, stop = serveTCP(t, fol)
			if sess, err = DialTCP(addr, pmem, testRoot); err != nil {
				t.Fatal(err)
			}
		} else {
			pipe := link(t, fol)
			sess, stop = NewSession(pipe, nil, pmem, testRoot), pipe.Kill
		}
		resyncs := mResyncs.Value()
		cap, err := NewCapture(pmem, Config{Session: sess, Root: testRoot, Raw: pmem, Strict: true})
		if err != nil {
			t.Fatalf("handshake: %v", err)
		}
		if mResyncs.Value() != resyncs+1 {
			t.Fatal("handshake against a fresh follower did not resync")
		}
		sent, applied := mFramesSent.Value(), mFramesApplied.Value()
		byteWorkload(t, cap)
		cap.Close()
		stop()
		frames = mFramesSent.Value() - sent
		if got := mFramesApplied.Value() - applied; got != frames {
			t.Fatalf("follower applied %v op frames, primary sent %v", got, frames)
		}
		pd, err := DirDigest(pmem, testRoot)
		if err != nil {
			t.Fatal(err)
		}
		if digest, err = DirDigest(fmem, testRoot); err != nil {
			t.Fatal(err)
		}
		if digest != pd {
			t.Fatalf("follower over TCP=%v diverged from its primary", overTCP)
		}
		return digest, frames
	}
	pipeDigest, pipeFrames := run(t, false)
	tcpDigest, tcpFrames := run(t, true)
	if pipeDigest != tcpDigest {
		t.Errorf("follower digest over the pipe %x, over TCP %x", pipeDigest, tcpDigest)
	}
	if pipeFrames != tcpFrames || pipeFrames == 0 {
		t.Errorf("op frames over the pipe %v, over TCP %v", pipeFrames, tcpFrames)
	}
}

// buildStream encodes a hello plus a few op frames the way a primary would.
func buildStream(t *testing.T, epoch uint64) (stream []byte, frameEnds []int) {
	t.Helper()
	ops := []OpRecord{
		{Kind: opMkdirAll, Path: ".", Perm: 0o700},
		{Kind: opOpen, Path: "meta.wal", Flags: flagsToWire(os.O_WRONLY | os.O_CREATE | os.O_APPEND), Perm: 0o600},
		{Kind: opWrite, Path: "meta.wal", Data: []byte("payload-one")},
		{Kind: opSync, Path: "meta.wal"},
		{Kind: opWrite, Path: "meta.wal", Data: []byte("payload-two")},
	}
	var seq uint64
	stream = frame.Seq.Append(nil, seq, payload(epoch, frameHello, nil))
	seq++
	frameEnds = append(frameEnds, len(stream))
	for _, rec := range ops {
		stream = frame.Seq.Append(stream, seq, payload(epoch, frameOp, encodeOp(rec)))
		seq++
		frameEnds = append(frameEnds, len(stream))
	}
	return stream, frameEnds
}

// streamConn hands ServeConn a fixed byte stream whose end is the primary
// hanging up, and collects the response frames.
type streamConn struct {
	net.Conn // unset: ServeConn only reads, writes and closes
	in       *bytes.Reader
	out      bytes.Buffer
}

func (c *streamConn) Read(b []byte) (int, error)  { return c.in.Read(b) }
func (c *streamConn) Write(b []byte) (int, error) { return c.out.Write(b) }
func (c *streamConn) Close() error                { return nil }

// serveStream runs ServeConn over stream and returns its result and the
// number of response frames it wrote.
func serveStream(fol *Follower, stream []byte) (resps int, err error) {
	c := &streamConn{in: bytes.NewReader(stream)}
	err = ServeConn(c, fol)
	for _, _, rerr := readFrame(&c.out); rerr == nil; _, _, rerr = readFrame(&c.out) {
		resps++
	}
	return resps, err
}

// TestTornFinalFrameDiscarded is the satellite regression: a stream that
// ends mid-frame must have its partial tail discarded by the same
// validation that truncates a torn WAL tail — every complete frame applies,
// the tear reads as a clean disconnect, and the follower stays serviceable.
func TestTornFinalFrameDiscarded(t *testing.T) {
	stream, ends := buildStream(t, 1)
	lastStart := ends[len(ends)-2]
	for cut := lastStart + 1; cut < len(stream); cut++ {
		fmem := faultfs.NewMem()
		fol, err := NewFollower(fmem, testRoot)
		if err != nil {
			t.Fatal(err)
		}
		resps, err := serveStream(fol, stream[:cut])
		if err != nil {
			t.Fatalf("cut at %d: torn stream must read as clean disconnect, got %v", cut, err)
		}
		if resps != len(ends)-1 {
			t.Fatalf("cut at %d: %d responses, want one per complete frame (%d)", cut, resps, len(ends)-1)
		}
		if got := fol.AppliedLSN(); got != uint64(len(ends)-2) {
			t.Fatalf("cut at %d: applied LSN %d, want %d (all complete op frames)", cut, got, len(ends)-2)
		}
		// The synced prefix is applied; the torn write is not.
		data, err := fmem.ReadFile(testRoot + "/meta.wal")
		if err != nil || string(data) != "payload-one" {
			t.Fatalf("cut at %d: follower file %q (%v), want synced prefix only", cut, data, err)
		}
		// The follower is not wedged: a fresh connection resyncs it.
		if err := hello(t, fol, faultfs.NewMem(), 1); err != nil {
			t.Fatalf("cut at %d: follower wedged after torn stream: %v", cut, err)
		}
	}
}

// TestTornFinalFrameOverTCP drives the same tear through a real connection:
// the primary hangs up mid-frame and the server must treat it as a clean
// disconnect.
func TestTornFinalFrameOverTCP(t *testing.T) {
	stream, ends := buildStream(t, 1)
	lastStart := ends[len(ends)-2]
	cut := lastStart + (len(stream)-lastStart)/2

	fol, err := NewFollower(faultfs.NewMem(), testRoot)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeConn(server, fol) }()
	// Collect one response per complete frame, then hang up mid-frame.
	resps := make(chan error, 1)
	go func() {
		for i := 0; i < len(ends)-1; i++ {
			if _, _, err := readFrame(client); err != nil {
				resps <- err
				return
			}
		}
		resps <- nil
	}()
	if _, err := client.Write(stream[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := <-resps; err != nil {
		t.Fatalf("reading responses: %v", err)
	}
	client.Close()
	if err := <-done; err != nil {
		t.Fatalf("torn stream must read as clean disconnect, got %v", err)
	}
	if got := fol.AppliedLSN(); got != uint64(len(ends)-2) {
		t.Fatalf("applied LSN %d, want %d (all complete op frames)", got, len(ends)-2)
	}
}

// TestCorruptFrameDropsConnNotFollower: a checksum-corrupt frame kills the
// connection (it cannot be trusted) but never the follower.
func TestCorruptFrameDropsConnNotFollower(t *testing.T) {
	stream, ends := buildStream(t, 1)
	corrupt := append([]byte(nil), stream...)
	corrupt[ends[len(ends)-2]+frame.Seq.Overhead()] ^= 0xff // flip a payload byte of the final frame

	fol, err := NewFollower(faultfs.NewMem(), testRoot)
	if err != nil {
		t.Fatal(err)
	}
	resps, err := serveStream(fol, corrupt)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt frame must drop the connection with ErrBadFrame, got %v", err)
	}
	if resps != len(ends)-1 {
		t.Fatalf("%d responses, want %d (stop at the corrupt frame)", resps, len(ends)-1)
	}
	if err := hello(t, fol, faultfs.NewMem(), 1); err != nil {
		t.Fatalf("follower wedged by corrupt frame: %v", err)
	}
}

// TestDegradedModeContinues: in medvaultd's failure mode a dead link must
// not fail client writes — the primary keeps committing locally, the lag
// gauge counts what the follower lacks until the watchdog raises repl_lag,
// and the reconnect path redials, resyncs and zeroes the gauge.
func TestDegradedModeContinues(t *testing.T) {
	pmem, fmem := faultfs.NewMem(), faultfs.NewMem()
	fol, err := NewFollower(fmem, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	pipe := link(t, fol)
	redial := func() (net.Conn, error) { return link(t, fol), nil }
	cap, err := NewCapture(pmem, Config{Session: NewSession(pipe, redial, pmem, testRoot), Root: testRoot, Raw: pmem, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cap.Close()
	v := openVault(t, cap, 1)
	if _, err := v.PutCtx(context.Background(), "dr-house", testRecord("before", 1)); err != nil {
		t.Fatal(err)
	}
	pipe.KillAtFrame(pipe.OpFrames(), KillSend) // link dies at the next frame
	// One past the watchdog's lag threshold (obs replLagMax, 256).
	const writes = 257
	for i := 0; i < writes; i++ {
		if _, err := v.PutCtx(context.Background(), "dr-house", testRecord(fmt.Sprintf("during-%d", i), 1)); err != nil {
			t.Fatalf("degraded primary must keep serving writes: %v", err)
		}
	}
	if cap.Connected() {
		t.Fatal("capture still reports a live link after ship failure")
	}
	if lag := mLagFrames.Value(); lag < writes {
		t.Fatalf("lag gauge %v after %d unreplicated writes", lag, writes)
	}
	wd := obs.NewWatchdog(obs.WatchdogConfig{Interval: time.Hour, Flight: obs.NewFlight(8)})
	raised := false
	for _, a := range wd.Tick() {
		raised = raised || a.Kind == "repl_lag"
	}
	if !raised {
		t.Fatal("watchdog did not report repl_lag for a follower missing every write")
	}

	// Reconnect through the capture's own path: the anti-entropy round
	// redials, and Hello must detect the gap and resync.
	before := mResyncs.Value()
	if err := cap.antiEntropyRound(); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	if !cap.Connected() || mResyncs.Value() == before {
		t.Fatal("reconnect over a gap must restore the link and resync")
	}
	if lag := mLagFrames.Value(); lag != 0 {
		t.Fatalf("lag gauge %v after the resync, want 0", lag)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	pd, _ := DirDigest(pmem, testRoot)
	fd, _ := DirDigest(fmem, testRoot)
	if pd != fd {
		t.Fatal("follower not byte-identical after reconnect resync")
	}
}

// TestAntiEntropyDivergenceResync: the timer path — a follower whose tree
// differs from the primary's in any byte must be detected by the round's
// handshake and resynced once under the op freeze, whatever the damage.
func TestAntiEntropyDivergenceResync(t *testing.T) {
	for _, tc := range []struct {
		name     string
		degraded bool // a non-strict capture that redials a dropped link
		damage   func(t *testing.T, fmem *faultfs.Mem)
	}{
		{"alien meta.wal", false, func(t *testing.T, fmem *faultfs.Mem) {
			// An unrelated vault's WAL: same leaf count, different content.
			alien := faultfs.NewMem()
			av := openVault(t, alien, 1)
			if _, err := av.PutCtx(context.Background(), "dr-house", testRecord("alien", 9)); err != nil {
				t.Fatal(err)
			}
			// Read the alien WAL while that vault is live: Close would
			// checkpoint the entries into its snapshot.
			alienWAL, err := alien.ReadFile(testRoot + "/meta.wal")
			if err != nil {
				t.Fatal(err)
			}
			if err := av.Close(); err != nil {
				t.Fatal(err)
			}
			if err := fmem.WriteFile(testRoot+"/meta.wal", alienWAL, 0o600); err != nil {
				t.Fatal(err)
			}
		}},
		{"meta.wal missing its last frame", false, func(t *testing.T, fmem *faultfs.Mem) {
			offs := walFrames(t, fmem)
			if err := fmem.Truncate(testRoot+"/meta.wal", int64(offs[len(offs)-2])); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped byte in an audit segment", false, func(t *testing.T, fmem *faultfs.Mem) {
			name := testRoot + "/audit/" + blockstore.SegmentName(0)
			seg, err := fmem.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			// Audit events reach the segment at a checkpoint, so until one
			// it is empty, and a stray byte is the damage.
			if len(seg) == 0 {
				seg = []byte{0}
			} else {
				seg[len(seg)-1] ^= 0x01
			}
			if err := fmem.WriteFile(name, seg, 0o600); err != nil {
				t.Fatal(err)
			}
		}},
		{"meta.wal with a sequence gap", true, func(t *testing.T, fmem *faultfs.Mem) {
			offs := walFrames(t, fmem)
			data, err := fmem.ReadFile(testRoot + "/meta.wal")
			if err != nil {
				t.Fatal(err)
			}
			gap := append(data[:offs[1]:offs[1]], data[offs[2]:]...)
			if err := fmem.WriteFile(testRoot+"/meta.wal", gap, 0o600); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pmem, fmem := faultfs.NewMem(), faultfs.NewMem()
			fol, err := NewFollower(fmem, testRoot)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Root: testRoot, Raw: pmem, Strict: !tc.degraded, Logf: t.Logf}
			var redial func() (net.Conn, error)
			if tc.degraded {
				redial = func() (net.Conn, error) { return link(t, fol), nil }
			}
			cfg.Session = NewSession(link(t, fol), redial, pmem, testRoot)
			cap, err := NewCapture(pmem, cfg)
			if err != nil {
				t.Fatal(err)
			}
			v := openVault(t, cap, 1)
			for i := 0; i < 3; i++ {
				if _, err := v.PutCtx(context.Background(), "dr-house", testRecord(fmt.Sprintf("rec-%d", i), 1)); err != nil {
					t.Fatal(err)
				}
			}
			tc.damage(t, fmem)

			before := mResyncs.Value()
			cap.StartAntiEntropy(10 * time.Millisecond)
			deadline := time.Now().Add(2 * time.Second)
			for mResyncs.Value() == before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
			cap.Close()
			if got := mResyncs.Value() - before; got != 1 {
				t.Fatalf("anti-entropy resynced %v times, want 1", got)
			}
			pd, _ := DirDigest(pmem, testRoot)
			fd, _ := DirDigest(fmem, testRoot)
			if pd != fd {
				t.Fatal("follower still diverged after anti-entropy resync")
			}
		})
	}
}

// walFrames returns the offset of every frame in the follower's meta.wal
// and the file's length, so offs[i]:offs[i+1] is frame i.
func walFrames(t *testing.T, fmem *faultfs.Mem) []int {
	t.Helper()
	data, err := fmem.ReadFile(testRoot + "/meta.wal")
	if err != nil {
		t.Fatal(err)
	}
	var offs []int
	n, _, err := wal.Read(fmem, testRoot+"/meta.wal", func(e wal.Entry) error {
		offs = append(offs, int(e.Off))
		return nil
	})
	if err != nil || n != int64(len(data)) || len(offs) < 3 {
		t.Fatalf("follower meta.wal: %d frames in %d of %d bytes, %v; want at least 3 whole frames", len(offs), n, len(data), err)
	}
	return append(offs, int(n))
}

// TestPostmortemBundlesStayNodeLocal: medvaultd writes postmortem bundles
// into the data dir outside the capture, so each node's bundles are its own.
// A bundle on either node must cost no resync and survive the handshake.
func TestPostmortemBundlesStayNodeLocal(t *testing.T) {
	pmem, fmem, _, _, cap := pair(t)
	defer cap.Close()
	var bundles []string
	for _, node := range []*faultfs.Mem{pmem, fmem} {
		p, err := obs.WritePostmortem(node, testRoot, "test", obs.PostmortemConfig{Flight: obs.NewFlight(8)})
		if err != nil {
			t.Fatal(err)
		}
		bundles = append(bundles, p)
	}
	before := mResyncs.Value()
	if err := cap.antiEntropyRound(); err != nil {
		t.Fatal(err)
	}
	if got := mResyncs.Value() - before; got != 0 {
		t.Errorf("postmortem bundles cost %v resyncs, want 0", got)
	}
	for i, node := range []*faultfs.Mem{pmem, fmem} {
		if _, err := node.Stat(bundles[i]); err != nil {
			t.Errorf("bundle %s after the handshake: %v", bundles[i], err)
		}
	}
}

// TestFencedWriteFailsEvenDegraded: fencing must override the degraded
// mode's forgiveness — a stale primary's write fails, wedging its WAL,
// rather than quietly committing locally.
func TestFencedWriteFailsEvenDegraded(t *testing.T) {
	_, _, fol, _, cap := pair(t)
	v := openVault(t, cap, 1)
	if _, err := v.PutCtx(context.Background(), "dr-house", testRecord("pre", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := fol.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", testRecord("post", 1)); err == nil {
		t.Fatal("fenced primary committed a write")
	}
	v.Close()
}
