package provenance

import (
	"bytes"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"medvault/internal/vcrypto"
)

// FuzzDecodeStored feeds arbitrary bytes to decodeStored, which reads a
// tracker's medium — bytes an insider may have written. It must never panic,
// never allocate more than a bounded amount per input byte (every length is
// bounded by the input before it sizes anything), and every v3 event it
// accepts must re-encode through encodeStored and sealStored to exactly those
// bytes. The seeds are TestGoldenEvent's vectors.
func FuzzDecodeStored(f *testing.F) {
	ev, own, mac, place := goldenTracker()
	ev.Hash = eventHash(ev)
	foreign := ev
	foreign.SignerKey, foreign.Signature = vcrypto.PublicKey{0xd1, 0xd2}, []byte{0xe1}
	f.Add(sealStored(encodeStored(ev, own), mac, ev.Hash))
	f.Add(sealStored(encodeStored(foreign, own), mac, foreign.Hash))
	v2, _ := hex.DecodeString(goldenStoredV2)
	f.Add(v2)
	f.Add(EncodeEvent(ev))
	f.Add([]byte{})
	f.Add([]byte{storedVersion})
	f.Add(bytes.Repeat([]byte{0xff}, 80))
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Event
		var err error
		limit := 16*uint64(len(data)) + 2048
		if n := leastAlloc(limit, func() { e, err = decodeStored(data, own, mac, place) }); n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil || data[0] != storedVersion {
			return
		}
		if re := sealStored(encodeStored(e, own), mac, e.Hash); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
	})
}

// leastAlloc is the fewest bytes run allocates over up to three runs: it
// stops at the first run within limit and collects garbage before each
// retry. TotalAlloc is process-wide, so another goroutine's allocations (the
// fuzzing engine's, a parallel test's) can land in one run's window, but
// not in every one.
func leastAlloc(limit uint64, run func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3 && least > limit; i++ {
		if i > 0 {
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
