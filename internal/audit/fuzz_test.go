package audit

import (
	"bytes"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"medvault/internal/vcrypto"
)

// fuzzTables are the fixed tables FuzzDecodeEvent decodes v4 and later
// events against, and fuzzSymbols holds them.
var (
	fuzzTables = [numSyms][]string{
		symActor:  {"dr-a", "0a1b"},
		symRecord: {"r1"},
		symDetail: {"role physician permits read on \"clinical\""},
	}
	fuzzSymbols = symbolsOf(fuzzTables)
)

// FuzzDecodeEvent hardens the audit-event decoder against arbitrary
// persisted bytes read after an event stamped prev: no panics, no
// allocation beyond what the input could spell (a packed token spells two
// hex digits a byte) and 1 KiB, and successful decodes
// re-encode canonically — a v8 event after the same predecessor time, or a
// legacy v7, v6, v5 or v4 one, against a small fixed symbol table (one that
// writes out a value the table holds is the sequential reader's ErrCorrupt),
// a legacy v3 event in its own layout. A legacy v2 event decodes but is
// never written again.
func FuzzDecodeEvent(f *testing.F) {
	e := Event{
		Timestamp: time.Unix(0, 42).UTC(), Actor: "dr-a",
		Action: ActionRead, Record: "r1", Version: 2,
		Outcome: OutcomeAllowed, Detail: "d", Trace: "0a1b", MAC: bytes.Repeat([]byte{7}, vcrypto.TagSize),
	}
	e.PrevHash[0], e.PrevHash[31] = 0xaa, 0xbb
	old := e // the legacy layouts carry the whole MAC
	old.MAC = bytes.Repeat([]byte{7}, macLenV6)
	for _, h := range []string{goldenEventV8, goldenEventV7, goldenEventV6} {
		golden, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden, int64(goldenPrevTime))
	}
	minted := e
	minted.Trace = "0123456789abcdef"
	f.Add(encodeEvent(e, [numSyms]int{0, 0, -1}, 40), int64(40))
	f.Add(encodeEvent(minted, [numSyms]int{-1, -1, -1}, 0), int64(0))
	f.Add(encodeEvent(minted, [numSyms]int{0, 0, 0}, math.MaxInt64), int64(math.MaxInt64)) // a step back from the end of time
	f.Add(encodeV7Event(e, [numSyms]int{0, 0, -1}), int64(0))
	f.Add(encodeV6Event(old, [numSyms]int{0, 0, -1}), int64(0))
	f.Add(encodeV5Event(old, [numSyms]int{0, 0, -1}), int64(0))
	f.Add(encodeV4Event(old, [numSyms]int{0, 0, -1}), int64(0))
	f.Add(encodeV3Event(old), int64(0))
	f.Add(encodeEvent(Event{Action: "unlisted", Outcome: "odd", Record: "ab", MAC: make([]byte, vcrypto.TagSize)}, [numSyms]int{-1, -1, -1}, 0), int64(0))
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0, 1}, int64(0))
	f.Fuzz(func(t *testing.T, data []byte, prev int64) {
		var e Event
		var defined [numSyms]bool
		var ver byte
		var err error
		limit := 2*uint64(len(data)) + 1024
		if n := leastAlloc(limit, func() { defined, ver, err = parseEvent(&e, data, fuzzSymbols, prev) }); n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil || ver == codecV2 {
			return
		}
		if ver == codecV3 {
			if !bytes.Equal(encodeV3Event(e), data) {
				t.Fatal("v3 decode/encode not canonical")
			}
			return
		}
		var nums [numSyms]int
		for f, s := range symbolValues(e) {
			nums[f] = slices.Index(fuzzTables[f], s)
			if defined[f] && nums[f] >= 0 {
				return // a known value written out
			}
		}
		encode := map[byte]func(Event, [numSyms]int) []byte{
			codecVersion: func(e Event, nums [numSyms]int) []byte { return encodeEvent(e, nums, prev) },
			codecV7:      encodeV7Event, codecV6: encodeV6Event, codecV5: encodeV5Event, codecV4: encodeV4Event,
		}[ver]
		if !bytes.Equal(encode(e, nums), data) {
			t.Fatalf("v%d decode/encode not canonical", ver)
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
