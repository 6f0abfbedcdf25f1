package core

import (
	"bytes"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
	"time"

	"medvault/internal/ehr"
	"medvault/internal/frame"
)

// FuzzDecodeBundle feeds arbitrary bytes to the export-bundle decoder — the
// parser that sits on the trust boundary between vaults during migration
// and restore. It must never panic, and every accepted bundle must
// re-encode to the identical bytes (the canonical-encoding property that
// cross-system content signatures depend on).
func FuzzDecodeBundle(f *testing.F) {
	rec := ehr.Record{
		ID:        "rec-fuzz",
		Patient:   "Pat Fuzz",
		MRN:       "mrn-1",
		Category:  ehr.CategoryClinical,
		Author:    "dr-house",
		CreatedAt: time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC),
		Title:     "note",
		Body:      "fuzz corpus body",
		Codes:     []string{"I10"},
	}
	seed := ExportBundle{
		ID:       rec.ID,
		Category: rec.Category,
		Versions: []ExportedVersion{{
			Record: rec,
			Version: Version{
				Number:    1,
				Author:    "dr-house",
				Timestamp: time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC),
			},
		}},
	}
	f.Add(EncodeBundle(seed))
	f.Add(EncodeBundle(ExportBundle{ID: "empty", Category: ehr.CategoryLab}))
	f.Add([]byte{})
	f.Add([]byte("MVXB"))
	f.Add(bytes.Repeat([]byte{0xFF}, 80))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBundle(data)
		if err != nil {
			return
		}
		re := EncodeBundle(b)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(re))
		}
	})
}

// FuzzDecodeWALEntry feeds arbitrary bytes to the metadata WAL's one parser,
// which replay runs over a medium an attacker may reach. It must never
// panic, never allocate more than the input could spell (every length is
// bounded by the input before it sizes anything), and every entry it
// accepts in a written layout ('P', 'I', 's', 'S', 'H', 'R', 'p' and 'i' of a
// later version, a 'P' or 'p' with a folded audit event, and a standalone
// audit event's, v8 or an older binary's v7) must re-encode to exactly those
// bytes. Legacy 'V', 'c'
// and 'v' entries, and 'p' and 'i' creates, are only ever decoded.
func FuzzDecodeWALEntry(f *testing.F) {
	create, correction := goldenCreate(), goldenCorrection()
	f.Add(create.encode())
	f.Add(correction.encode())
	f.Add(append(correction.encode(), frame.AppendVarBytes(nil, []byte{1, 2, 3})...)) // trailing bytes
	f.Add((&walEntry{kind: 'H', id: "r", reason: "litigation", placed: goldenTime}).encode())
	f.Add((&walEntry{kind: 'S', id: "r"}).encode())
	for _, e := range []walEntry{withCustody(create), withCustody(correction), goldenShred(),
		goldenFolded(withCustody(create)), goldenFolded(withCustody(correction))} {
		f.Add(e.encode())
	}
	for _, standalone := range []string{goldenAuditEntry, goldenAuditEntryV7} {
		b, _ := hex.DecodeString(standalone)
		f.Add(b)
	}
	for _, legacy := range []string{goldenLegacyCCreate, goldenLegacyCCorrection, goldenParentPCreate} {
		b, _ := hex.DecodeString(legacy)
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{'v', 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(len(data)) + 1024
		if n := leastAlloc(limit, func() { decodeWALEntry(data) }); n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		e, err := decodeWALEntry(data)
		if err != nil || data[0] == 'V' || data[0] == 'c' || data[0] == 'v' ||
			(data[0] == 'p' || data[0] == 'i') && e.ver.Number == 1 {
			return
		}
		if re := e.encode(); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
	})
}

// TestParseWALEntryCopiesNoCiphertext: parseWALEntry reads a version's
// ciphertext and its folded audit event in place, so parsing a folded create
// of 64 KiB allocates what its header spells — the ID, author and wrapped DEK
// — and not the ciphertext: under 1 KiB, the least of three readings. (A
// parser that copied the ciphertext allocated more than 64 KiB.)
func TestParseWALEntryCopiesNoCiphertext(t *testing.T) {
	e := goldenFolded(withCustody(goldenCreate()))
	e.ct = bytes.Repeat([]byte{0x5a}, 64<<10)
	data := e.encode()
	var got walEntry
	var err error
	if n := leastAlloc(1<<10, func() { got, err = parseWALEntry(data) }); n >= 1<<10 {
		t.Errorf("parsing a folded %d-byte entry allocated %d bytes", len(data), n)
	}
	if err != nil || !bytes.Equal(got.ct, e.ct) || !bytes.Equal(got.event, e.event) || !bytes.Equal(got.wrappedDEK, e.wrappedDEK) {
		t.Fatalf("the entry did not round-trip: %v", err)
	}
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
