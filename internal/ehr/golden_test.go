package ehr

import (
	"testing"
	"time"

	"medvault/internal/frame"
)

// TestGoldenRecord pins the canonical record encoding — the bytes content
// hashes and Merkle leaves commit to.
func TestGoldenRecord(t *testing.T) {
	rec := Record{
		ID: "p1-enc-0", Patient: "Ada L.", MRN: "p1", Category: CategoryClinical,
		Author: "dr-a", CreatedAt: time.Unix(0, 1190000000123456789).UTC(),
		Title: "Visit", Body: "note text", Codes: []string{"I10", "E11.9"},
	}
	frame.CheckGolden(t, frame.Golden{
		Name: "ehr record",
		Hex: "4d5652310000000870312d656e632d3000000006416461204c2e00000002703100000008636c696e6963616c00000004" +
			"64722d611083bab1fa12cd15000000055669736974000000096e6f746520746578740000000200000003493130000000" +
			"054531312e39",
		Encode:  func() []byte { return Encode(rec) },
		Decode:  func(b []byte) (any, error) { return Decode(b) },
		Want:    rec,
		Corrupt: ErrCorrupt,
	})
}

// TestGoldenSealedRecord pins the sealed layout: the plaintext a vault seals
// per version. The same record as TestGoldenRecord takes 52 B where MVR1
// takes 102: no ID, one-byte lengths and count, and the category as a word.
func TestGoldenSealedRecord(t *testing.T) {
	rec := Record{
		ID: "p1-enc-0", Patient: "Ada L.", MRN: "p1", Category: CategoryClinical,
		Author: "dr-a", CreatedAt: time.Unix(0, 1190000000123456789).UTC(),
		Title: "Visit", Body: "note text", Codes: []string{"I10", "E11.9"},
	}
	frame.CheckGolden(t, frame.Golden{
		Name:    "sealed record",
		Hex:     "0106416461204c2e027031010464722d611083bab1fa12cd15055669736974096e6f746520746578740203493130054531312e39",
		Encode:  func() []byte { return EncodeSealed(rec) },
		Decode:  func(b []byte) (any, error) { return DecodeSealed(b, rec.ID) },
		Want:    rec,
		Corrupt: ErrCorrupt,
	})
	if sealed, canonical := len(EncodeSealed(rec)), len(Encode(rec)); sealed != 52 || canonical != 102 {
		t.Errorf("sealed %d B, MVR1 %d B; want 52 and 102", sealed, canonical)
	}
}
