package repl

import (
	"encoding/hex"
	"errors"
	"os"
	"testing"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
	"medvault/internal/merkle"
)

func goldenHash(seed byte) (h merkle.Hash) {
	for i := range h {
		h[i] = seed + byte(i)
	}
	return h
}

var errGoldenRejected = errors.New("decoder reported !ok")

func okErr(ok bool) error {
	if ok {
		return nil
	}
	return errGoldenRejected
}

// TestGoldenWire pins every replication payload body plus the epoch|kind
// header they ride under.
func TestGoldenWire(t *testing.T) {
	ops := []struct {
		name string
		hex  string
		rec  OpRecord
	}{
		{"open", "01000000086d6574612e77616c0000044100000180", OpRecord{Kind: opOpen, Path: "meta.wal", Flags: flagsToWire(os.O_WRONLY | os.O_CREATE | os.O_APPEND), Perm: 0o600}},
		{"write", "02000000086d6574612e77616c00000003616263", OpRecord{Kind: opWrite, Path: "meta.wal", Data: []byte("abc")}},
		{"sync", "03000000086d6574612e77616c", OpRecord{Kind: opSync, Path: "meta.wal"}},
		{"rename", "04000000096d6574612e736e61700000000d6d6574612e736e61702e746d70", OpRecord{Kind: opRename, Path: "meta.snap", Old: "meta.snap.tmp"}},
		{"remove", "05000000057365672d31", OpRecord{Kind: opRemove, Path: "seg-1"}},
		{"removeall", "0600000006626c6f636b73", OpRecord{Kind: opRemoveAll, Path: "blocks"}},
		{"truncate", "07000000086d6574612e77616c0000000000001000", OpRecord{Kind: opTruncate, Path: "meta.wal", Size: 4096}},
		{"mkdirall", "0800000006626c6f636b73000001c0", OpRecord{Kind: opMkdirAll, Path: "blocks", Perm: 0o700}},
		{"writefile", "090000000c636c75737465722e636f6e66000001800000000973686172647320340a", OpRecord{Kind: opWriteFile, Path: "cluster.conf", Perm: 0o600, Data: []byte("shards 4\n")}},
		{"tracemark", "0a000000066131623263330000000774726163652d3100000003707574", OpRecord{Kind: opTraceMark, Path: "a1b2c3", Old: "trace-1", Data: []byte("put")}},
	}
	var vectors []frame.Golden
	for _, op := range ops {
		op := op
		vectors = append(vectors, frame.Golden{
			Name:   "op " + op.name,
			Hex:    op.hex,
			Encode: func() []byte { return encodeOp(op.rec) },
			Decode: func(b []byte) (any, error) { rec, ok := decodeOp(b); return rec, okErr(ok) },
			Want:   op.rec,
		})
	}

	type helloAck struct {
		Epoch  uint64
		Digest [32]byte
	}
	type reject struct {
		Epoch  uint64
		Reason string
	}
	vectors = append(vectors,
		frame.Golden{
			Name:   "hello-ack body v2",
			Hex:    "0000000000000007707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f",
			Encode: func() []byte { return encodeHelloAck(7, goldenHash(0x70)) },
			Decode: func(b []byte) (any, error) {
				e, d, ok := decodeHelloAck(b)
				return helloAck{e, d}, okErr(ok)
			},
			Want: helloAck{7, goldenHash(0x70)},
		},
		frame.Golden{
			Name:   "reject body",
			Hex:    "00000000000000090000000b7374616c652065706f6368",
			Encode: func() []byte { return encodeReject(9, "stale epoch") },
			Decode: func(b []byte) (any, error) {
				e, reason, ok := decodeReject(b)
				return reject{e, reason}, okErr(ok)
			},
			Want: reject{9, "stale epoch"},
		},
		frame.Golden{
			Name:   "payload header (ack)",
			Hex:    "000000000000000704000000000000002a",
			Encode: func() []byte { return payload(7, frameAck, []byte{0, 0, 0, 0, 0, 0, 0, 42}) },
		},
	)
	frame.CheckGolden(t, vectors...)

	// The header is not self-delimiting (the body runs to the frame's end),
	// so it is checked for its split rather than by truncation.
	e, k, body, ok := splitPayload(payload(7, frameAck, []byte{42}))
	if !ok || e != 7 || k != frameAck || len(body) != 1 || body[0] != 42 {
		t.Errorf("splitPayload = %d, %d, %x, %v", e, k, body, ok)
	}
}

// TestRetiredWireRefused keeps the vectors of exchanges this build no longer
// speaks, and asserts that it refuses them: the v1 hello ack carried keyless
// per-shard Merkle heads before its digest, a heads request (kind 5) carried
// signed tree heads and a public key, and a heads ack (kind 6) the
// follower's computed heads. The snapshot resync's begin (kind 7, empty),
// file (kind 8: dir flag, path, bytes) and end (kind 9, the expected
// digest) frames gave way to ordinary op frames. No wire frame is stored on
// a medium, so refusal is the whole of their compatibility.
func TestRetiredWireRefused(t *testing.T) {
	helloAckV1 := "0000000000000007000000020000000000000003101112131415161718191a1b1c1d1e1f202122232425262728292a2b" +
		"2c2d2e2f0000000000000000404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f70717273" +
		"7475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f"
	if _, _, ok := decodeHelloAck(mustHex(t, helloAckV1)); ok {
		t.Error("decodeHelloAck accepted a v1 hello-ack body")
	}

	retired := []struct {
		name string
		kind uint8
		hex  string
	}{
		{"heads request body", 5, "00000002b1b2000000010000000000000003101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d" +
			"2e2f1083bab1fa12cd1500000002c1c2"},
		{"heads-ack body", 6, "000000020000000000000003101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f00000000" +
			"00000000404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"},
		{"snapshot begin body", 7, ""},
		{"snapshot file body", 8, "000000001173686172642d302f6d6574612e736e6170000000044d564d53"},
		{"snapshot end body", 9, "707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f"},
	}
	for _, r := range retired {
		fol, err := NewFollower(faultfs.NewMem(), testRoot)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fol.handlePayload(0, payload(1, frameHello, nil)); err != nil {
			t.Fatalf("%s: hello: %v", r.name, err)
		}
		if _, err := fol.handlePayload(1, payload(1, r.kind, mustHex(t, r.hex))); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: follower answered kind %d with %v, want ErrBadFrame", r.name, r.kind, err)
		}
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireFlags pins the open flags the stream carries at their Linux values
// whatever the host, and checks they decode back to the host's os.O_*: on
// darwin O_CREATE is 0x200 and 0x400 is O_TRUNC, so shipping raw host flags
// would make a follower truncate what the primary appended to.
func TestWireFlags(t *testing.T) {
	for _, tc := range []struct {
		flag int
		wire uint32
	}{
		{os.O_RDONLY, 0},
		{os.O_WRONLY | os.O_CREATE | os.O_APPEND, 0x441},
		{os.O_WRONLY | os.O_CREATE | os.O_EXCL | os.O_APPEND, 0x4c1},
		{os.O_WRONLY | os.O_CREATE | os.O_TRUNC, 0x241},
		{os.O_RDWR, 0x2},
	} {
		if got := flagsToWire(tc.flag); got != tc.wire {
			t.Errorf("flagsToWire(%#x) = %#x, want %#x", tc.flag, got, tc.wire)
		}
		if got := flagsFromWire(tc.wire); got != tc.flag {
			t.Errorf("flagsFromWire(%#x) = %#x, want %#x", tc.wire, got, tc.flag)
		}
	}
}
