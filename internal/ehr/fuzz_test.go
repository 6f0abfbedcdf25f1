package ehr

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"medvault/internal/frame"
)

// FuzzDecode feeds arbitrary bytes to the record decoder: it must never
// panic, and every successful decode must round-trip to identical bytes
// (the canonical-encoding invariant that content hashing depends on).
func FuzzDecode(f *testing.F) {
	g := NewGenerator(1, time.Time{})
	for i := 0; i < 5; i++ {
		f.Add(Encode(g.Next()))
	}
	f.Add([]byte{})
	f.Add([]byte("MVR1"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(rec)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(re))
		}
	})
}

// FuzzDecodeSealed feeds arbitrary bytes to the sealed-layout decoder: it
// must never panic, a hostile code count must not size an allocation beyond
// the input, and every successful decode must re-encode to identical bytes.
func FuzzDecodeSealed(f *testing.F) {
	g := NewGenerator(1, time.Time{})
	for i := 0; i < 5; i++ {
		f.Add(EncodeSealed(g.Next()))
	}
	noCodes := g.Next()
	noCodes.Codes = nil
	enc := EncodeSealed(noCodes)
	f.Add(frame.AppendUvarint(enc[:len(enc)-1], 1<<62)) // a count no input holds
	f.Add([]byte{})
	f.Add([]byte{SealedTag})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		var err error
		limit := 64*uint64(len(data)) + 4096
		if n := leastAlloc(limit, func() { rec, err = DecodeSealed(data, "fuzz-id") }); n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if re := EncodeSealed(rec); !bytes.Equal(re, data) || rec.ID != "fuzz-id" {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out, ID %q", len(data), len(re), rec.ID)
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
