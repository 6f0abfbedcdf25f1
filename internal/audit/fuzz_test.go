package audit

import (
	"bytes"
	"encoding/hex"
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
// persisted bytes: no panics, and successful decodes re-encode canonically —
// a v7 event, or a legacy v6, v5 or v4 one, against a small fixed symbol table
// (one that writes out a value the table holds is the sequential reader's
// ErrCorrupt), a legacy v3 event in its own layout. A legacy v2 event
// decodes but is never written again.
func FuzzDecodeEvent(f *testing.F) {
	e := Event{
		Timestamp: time.Unix(0, 42).UTC(), Actor: "dr-a",
		Action: ActionRead, Record: "r1", Version: 2,
		Outcome: OutcomeAllowed, Detail: "d", Trace: "0a1b", MAC: bytes.Repeat([]byte{7}, vcrypto.TagSize),
	}
	e.PrevHash[0], e.PrevHash[31] = 0xaa, 0xbb
	old := e // the legacy layouts carry the whole MAC
	old.MAC = bytes.Repeat([]byte{7}, macLenV6)
	for _, h := range []string{goldenEventV7, goldenEventV6} {
		golden, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	f.Add(encodeEvent(e, [numSyms]int{0, 0, -1}))
	f.Add(encodeEvent(e, [numSyms]int{-1, -1, -1}))
	f.Add(encodeV6Event(old, [numSyms]int{0, 0, -1}))
	f.Add(encodeV5Event(old, [numSyms]int{0, 0, -1}))
	f.Add(encodeV4Event(old, [numSyms]int{0, 0, -1}))
	f.Add(encodeV3Event(old))
	f.Add(encodeEvent(Event{Action: "unlisted", Outcome: "odd", Record: "ab", MAC: make([]byte, vcrypto.TagSize)}, [numSyms]int{-1, -1, -1}))
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, defined, ver, err := parseEvent(data, fuzzSymbols)
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
		encode := map[byte]func(Event, [numSyms]int) []byte{codecVersion: encodeEvent, codecV6: encodeV6Event, codecV5: encodeV5Event, codecV4: encodeV4Event}[ver]
		if !bytes.Equal(encode(e, nums), data) {
			t.Fatalf("v%d decode/encode not canonical", ver)
		}
	})
}
