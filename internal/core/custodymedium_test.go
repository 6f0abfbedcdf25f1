package core

import (
	"context"
	"errors"
	"testing"

	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/provenance"
)

// TestVerifyAllSeesTheCustodyMedium: custody chains are read from the
// medium, so one flipped byte in an already-written custody frame of a
// running durable vault fails both the chain's reader and the sweep — never
// a chain one event shorter — while a chain the byte is no part of still
// reads.
func TestVerifyAllSeesTheCustodyMedium(t *testing.T) {
	mem := faultfs.NewMem()
	v, err := Open(Config{Name: "medium-test", Master: mustKey(t), Clock: clock.NewVirtual(testEpoch), Dir: "vault", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	registerStaff(t, v)
	ctx := context.Background()
	mk := func(id string) ehr.Record {
		return ehr.Record{
			ID: id, MRN: "mrn-777", Patient: "Keiko Tanaka", Category: ehr.CategoryClinical,
			Author: "dr-house", CreatedAt: testEpoch, Title: "note", Body: "asthma follow-up",
		}
	}
	recA, recB := mk("mrn-777/enc-0"), mk("mrn-777/enc-1")
	for _, r := range []ehr.Record{recA, recB} {
		if _, err := v.PutCtx(ctx, "dr-house", r); err != nil {
			t.Fatal(err)
		}
	}
	recA.Body += " amended"
	if _, err := v.CorrectCtx(ctx, "dr-house", recA); err != nil {
		t.Fatal(err)
	}
	if chain, err := v.ProvenanceCtx(ctx, "officer-kim", recA.ID); err != nil || len(chain) != 2 {
		t.Fatalf("clean custody chain: %d events, %v; want 2", len(chain), err)
	}
	if rep, err := v.VerifyAll(nil, nil); err != nil || rep.ProvenanceChains != 2 {
		t.Fatalf("clean sweep: %+v, %v", rep, err)
	}

	// recA's create is the custody store's first frame; flip a byte inside it.
	const seg = "vault/prov/seg-00000000.blk"
	raw, err := mem.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[40] ^= 0x01
	if err := mem.WriteFile(seg, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	if chain, err := v.ProvenanceCtx(ctx, "officer-kim", recA.ID); !errors.Is(err, provenance.ErrChainBroken) || chain != nil {
		t.Errorf("custody over a flipped byte: %d events, %v; want none, ErrChainBroken", len(chain), err)
	}
	if chain, err := v.ProvenanceCtx(ctx, "officer-kim", recB.ID); err != nil || len(chain) != 1 {
		t.Errorf("custody beside the flipped byte: %d events, %v; want 1, nil", len(chain), err)
	}
	if _, err := v.VerifyAll(nil, nil); !errors.Is(err, ErrTampered) {
		t.Errorf("sweep over a flipped custody byte: %v, want ErrTampered", err)
	}
}
