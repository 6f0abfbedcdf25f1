package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"medvault/internal/audit"
	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/ehr"
)

// TestVerifyAllSeesTheAuditMedium: the sweep vouches for the audit bytes on
// disk, not for what the process remembers having written. One flipped byte
// in an already-written frame of a running durable vault must fail it.
func TestVerifyAllSeesTheAuditMedium(t *testing.T) {
	dir := t.TempDir()
	v, err := Open(Config{Name: "medium-test", Master: mustKey(t), Clock: clock.NewVirtual(testEpoch), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	registerStaff(t, v)
	ctx := context.Background()
	rec := clinicalRecord(t, 1)
	if _, err := v.PutCtx(ctx, "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, err := v.GetCtx(ctx, "dr-house", rec.ID); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := v.VerifyAll(nil, nil); err != nil || rep.AuditEvents < 50 {
		t.Fatalf("clean sweep: %+v, %v", rep, err)
	}

	seg := filepath.Join(dir, "audit", blockstore.SegmentName(0))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x01
	if err := os.WriteFile(seg, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyAll(nil, nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("sweep over a flipped audit byte: %v, want ErrTampered", err)
	}
}

// TestCorruptAuditFrameFailsTheAnswer: an audit query or an accounting of
// disclosures whose answer includes an event that no longer reads back
// verified is an error — never the list minus that event.
func TestCorruptAuditFrameFailsTheAnswer(t *testing.T) {
	v, _ := newVault(t)
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
		for i := 0; i < 3; i++ {
			if _, _, err := v.GetCtx(ctx, "dr-house", r.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ds, err := v.AccountingOfDisclosuresCtx(ctx, "officer-kim", "mrn-777"); err != nil || len(ds) != 8 {
		t.Fatalf("clean accounting: %d rows, %v; want 8", len(ds), err)
	}

	// A format-aware insider rewrites the last stored event that names recA:
	// one MAC bit flipped, under a valid frame CRC.
	store := v.Shard(0).auditStore
	var target blockstore.Ref
	if err := store.Scan(func(ref blockstore.Ref, data []byte) error {
		if bytes.Contains(data, []byte(recA.ID)) {
			target = ref
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.CorruptFrame(target, func(p []byte) []byte {
		p[len(p)-1] ^= 0x01
		return p
	}); err != nil {
		t.Fatal(err)
	}

	if evs, err := v.AuditEventsCtx(ctx, "officer-kim", audit.Query{Record: recA.ID}); !errors.Is(err, audit.ErrBadMAC) || evs != nil {
		t.Errorf("audit query over the forged event: %d events, %v; want none, ErrBadMAC", len(evs), err)
	}
	if ds, err := v.AccountingOfDisclosuresCtx(ctx, "officer-kim", "mrn-777"); !errors.Is(err, audit.ErrBadMAC) || ds != nil {
		t.Errorf("accounting over the forged event: %d rows, %v; want none, ErrBadMAC", len(ds), err)
	}
	// An answer the forged event is no part of is still served.
	if evs, err := v.AuditEventsCtx(ctx, "officer-kim", audit.Query{Record: recB.ID}); err != nil || len(evs) != 4 {
		t.Errorf("audit query beside the forged event: %d events, %v; want 4, nil", len(evs), err)
	}
}
