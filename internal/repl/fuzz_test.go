package repl

import (
	"encoding/binary"
	"math"
	"testing"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
)

// FuzzReplFrame throws arbitrary bytes at the follower's connection loop:
// readFrame's length cap and checksum, the epoch header, and the op codec
// must reject whatever they reject without panicking — and whatever happens,
// the follower must remain able to serve a fresh primary's handshake. A
// wedged follower is the one failure mode replication cannot self-heal.
func FuzzReplFrame(f *testing.F) {
	f.Add(frame.Seq.Append(nil, 0, payload(1, frameHello, nil)))
	f.Add(frame.Seq.Append(nil, 0, payload(1, frameOp,
		encodeOp(OpRecord{Kind: opWrite, Path: "meta.wal", Data: []byte("x")}))))
	f.Add(frame.Seq.Append(frame.Seq.Append(nil, 0, payload(1, frameHello, nil)), 1,
		payload(1, frameOp, encodeOp(OpRecord{Kind: opMkdirAll, Path: "d", Perm: 0o700}))))
	f.Add([]byte{})
	f.Add([]byte("not a frame at all, just bytes pretending"))
	f.Add(frame.Seq.Append(nil, 0, payload(math.MaxUint64, 9, make([]byte, 32)))) // a retired snapshot end
	huge := frame.Seq.Append(nil, 0, payload(1, frameHello, nil))
	binary.BigEndian.PutUint32(huge[8:12], maxFrameSize) // claims more than the cap allows
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		fol, err := NewFollower(faultfs.NewMem(), "r")
		if err != nil {
			t.Fatal(err)
		}
		serveStream(fol, data) // must not panic
		// Serviceability probe: a legitimate new primary (any epoch at or
		// above whatever the stream tricked the follower into) must still
		// get through a full handshake, resync included.
		if e := fol.Epoch(); e < math.MaxUint64 {
			p := NewPipe(fol)
			defer p.Kill()
			if err := NewSession(p, nil, faultfs.NewMem(), "r").Hello(e + 1); err != nil {
				t.Fatalf("follower wedged after fuzzed stream: %v", err)
			}
		}
	})
}
