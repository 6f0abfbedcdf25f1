package repl

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/frame"
	"medvault/internal/vcrypto"
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

// pair wires a fresh primary/follower pair over an in-process pipe.
func pair(t *testing.T) (pmem, fmem *faultfs.Mem, fol *Follower, cap *Capture) {
	t.Helper()
	pmem, fmem = faultfs.NewMem(), faultfs.NewMem()
	var err error
	fol, err = NewFollower(fmem, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	cap, err = NewCapture(pmem, Config{Session: NewPipe(fol, pmem, testRoot), Root: testRoot, Raw: pmem, Strict: true})
	if err != nil {
		t.Fatalf("capture handshake: %v", err)
	}
	return pmem, fmem, fol, cap
}

// TestReplicateAndPromote is the happy path: every committed write is on the
// follower byte-for-byte, and the promoted vault serves it with a clean
// integrity sweep.
func TestReplicateAndPromote(t *testing.T) {
	pmem, fmem, fol, cap := pair(t)
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
	cap, err := NewCapture(pmem, Config{Session: NewPipe(fol, pmem, testRoot), Root: testRoot, Raw: pmem, Strict: true})
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

// TestTCPTransport runs the same replication flow over a real TCP socket.
func TestTCPTransport(t *testing.T) {
	fmem := faultfs.NewMem()
	fol, err := NewFollower(fmem, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, fol, t.Logf)

	pmem := faultfs.NewMem()
	sess, err := DialTCP(l.Addr().String(), pmem, testRoot)
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
	// Signed-head anti-entropy over the wire: consistent heads, no resync.
	before := mResyncs.Value()
	heads, err := sess.Heads(cap.Epoch(), v.PublicKey(), v.Heads())
	if err != nil {
		t.Fatalf("heads exchange: %v", err)
	}
	if len(heads) != 2 {
		t.Fatalf("got %d follower heads, want 2", len(heads))
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	cap.Close()
	if mResyncs.Value() != before {
		t.Fatal("consistent heads must not trigger a resync")
	}

	if _, err := fol.Promote(); err != nil {
		t.Fatal(err)
	}
	pv := openVault(t, fmem, 2)
	defer pv.Close()
	if _, _, err := pv.GetCtx(context.Background(), "dr-house", "tcp-3"); err != nil {
		t.Fatalf("promoted vault after TCP replication: %v", err)
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
	stream = frame.Append(nil, seq, payload(epoch, frameHello, nil))
	seq++
	frameEnds = append(frameEnds, len(stream))
	for _, rec := range ops {
		stream = frame.Append(stream, seq, payload(epoch, frameOp, encodeOp(rec)))
		seq++
		frameEnds = append(frameEnds, len(stream))
	}
	return stream, frameEnds
}

// TestTornFinalFrameDiscarded is the satellite regression: a stream that
// ends mid-frame must have its partial tail discarded by the same
// validation that truncates a torn WAL tail — every complete frame applies,
// the tear is silent, and the follower stays serviceable.
func TestTornFinalFrameDiscarded(t *testing.T) {
	stream, ends := buildStream(t, 1)
	lastStart := ends[len(ends)-2]
	for cut := lastStart + 1; cut < len(stream); cut++ {
		fmem := faultfs.NewMem()
		fol, err := NewFollower(fmem, testRoot)
		if err != nil {
			t.Fatal(err)
		}
		resps, consumed, err := fol.FeedStream(stream[:cut])
		if err != nil {
			t.Fatalf("cut at %d: torn tail must be silent, got %v", cut, err)
		}
		if consumed != lastStart {
			t.Fatalf("cut at %d: consumed %d, want every complete frame (%d)", cut, consumed, lastStart)
		}
		if len(resps) != len(ends)-1 {
			t.Fatalf("cut at %d: %d responses, want %d", cut, len(resps), len(ends)-1)
		}
		// The synced prefix is applied; the torn write is not.
		data, err := fmem.ReadFile(testRoot + "/meta.wal")
		if err != nil || string(data) != "payload-one" {
			t.Fatalf("cut at %d: follower file %q (%v), want synced prefix only", cut, data, err)
		}
		// The follower is not wedged: a fresh connection resyncs it.
		if err := NewPipe(fol, faultfs.NewMem(), testRoot).Hello(1); err != nil {
			t.Fatalf("cut at %d: follower wedged after torn stream: %v", cut, err)
		}
	}
}

// TestTornFinalFrameOverTCP drives the same tear through the real
// connection loop: kill the stream mid-frame and the server must treat it
// as a clean disconnect.
func TestTornFinalFrameOverTCP(t *testing.T) {
	stream, ends := buildStream(t, 1)
	lastStart := ends[len(ends)-2]
	cut := lastStart + (len(stream)-lastStart)/2

	fmem := faultfs.NewMem()
	fol, err := NewFollower(fmem, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeConn(server, fol) }()
	go func() {
		client.Write(stream[:cut])
		// Drain responses so the server never blocks on its writes.
		buf := make([]byte, 1024)
		for {
			if _, err := client.Read(buf); err != nil {
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
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
	corrupt[ends[len(ends)-2]+frame.Overhead] ^= 0xff // flip a payload byte of the final frame

	fol, err := NewFollower(faultfs.NewMem(), testRoot)
	if err != nil {
		t.Fatal(err)
	}
	_, consumed, err := fol.FeedStream(corrupt)
	if err != nil {
		t.Fatalf("corrupt frame is indistinguishable from a tear mid-stream: %v", err)
	}
	if consumed != ends[len(ends)-2] {
		t.Fatalf("consumed %d, want %d (stop at the corrupt frame)", consumed, ends[len(ends)-2])
	}
	if err := NewPipe(fol, faultfs.NewMem(), testRoot).Hello(1); err != nil {
		t.Fatalf("follower wedged by corrupt frame: %v", err)
	}
}

// TestDegradedModeContinues: in medvaultd's failure mode a dead link must
// not fail client writes — the primary keeps committing locally and the
// reconnect path resyncs.
func TestDegradedModeContinues(t *testing.T) {
	pmem, fmem := faultfs.NewMem(), faultfs.NewMem()
	fol, err := NewFollower(fmem, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipe(fol, pmem, testRoot)
	cap, err := NewCapture(pmem, Config{Session: pipe, Root: testRoot, Raw: pmem, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	v := openVault(t, cap, 1)
	if _, err := v.PutCtx(context.Background(), "dr-house", testRecord("before", 1)); err != nil {
		t.Fatal(err)
	}
	pipe.KillAtFrame(pipe.OpFrames(), KillSend) // link dies at the next frame
	if _, err := v.PutCtx(context.Background(), "dr-house", testRecord("during", 1)); err != nil {
		t.Fatalf("degraded primary must keep serving writes: %v", err)
	}
	if cap.Connected() {
		t.Fatal("capture still reports a live link after ship failure")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// Reconnect over a fresh pipe: Hello's anti-entropy must detect the gap
	// and resync the unshipped tail.
	before := mResyncs.Value()
	if err := NewPipe(fol, pmem, testRoot).Hello(cap.Epoch()); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	if mResyncs.Value() == before {
		t.Fatal("reconnect over a gap must resync")
	}
	pd, _ := DirDigest(pmem, testRoot)
	fd, _ := DirDigest(fmem, testRoot)
	if pd != fd {
		t.Fatal("follower not byte-identical after reconnect resync")
	}
}

// TestAntiEntropyDivergenceResync: the timer path — a diverged follower
// (its heads are not a prefix of the primary's) must be detected by the
// signed-head exchange and resynced under the op freeze.
func TestAntiEntropyDivergenceResync(t *testing.T) {
	pmem, fmem, _, cap := pair(t)
	v := openVault(t, cap, 1)
	defer v.Close()
	if _, err := v.PutCtx(context.Background(), "dr-house", testRecord("rec", 1)); err != nil {
		t.Fatal(err)
	}
	// Sabotage the replica with an unrelated vault's WAL: same leaf count,
	// different content, so the follower's head is NOT a prefix of the
	// primary's history. (Mere truncation reads as lag, which prefix
	// consistency rightly tolerates without a resync.)
	alien := faultfs.NewMem()
	av := openVault(t, alien, 1)
	if _, err := av.PutCtx(context.Background(), "dr-house", testRecord("alien", 9)); err != nil {
		t.Fatal(err)
	}
	// Read the alien WAL while that vault is live: Close would checkpoint
	// the entries into its snapshot and leave an empty WAL (which would read
	// as lag, not divergence).
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

	before := mResyncs.Value()
	cap.StartAntiEntropy(v, 10*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for mResyncs.Value() == before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if mResyncs.Value() == before {
		t.Fatal("anti-entropy never detected the divergence")
	}
	pd, _ := DirDigest(pmem, testRoot)
	fd, _ := DirDigest(fmem, testRoot)
	if pd != fd {
		t.Fatal("follower still diverged after anti-entropy resync")
	}
}

// TestFencedWriteFailsEvenDegraded: fencing must override the degraded
// mode's forgiveness — a stale primary's write fails, wedging its WAL,
// rather than quietly committing locally.
func TestFencedWriteFailsEvenDegraded(t *testing.T) {
	pmem, _, fol, cap := pair(t)
	_ = pmem
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

var _ = errors.Is // keep errors imported if assertions above change
