package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"medvault/internal/audit"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/merkle"
	"medvault/internal/stores"
	"medvault/internal/vcrypto"
)

// These tests pin the vault's headline property: every insider attack the
// paper worries about is detected.

func newAdapter(t *testing.T) (*Adapter, *Cluster) {
	t.Helper()
	v, _ := newVault(t)
	a, err := NewAdapter(v)
	if err != nil {
		t.Fatal(err)
	}
	return a, v
}

func TestAdapterConformance(t *testing.T) {
	a, _ := newAdapter(t)
	recs := ehr.NewGenerator(20, testEpoch).Corpus(15)
	for _, r := range recs {
		if err := a.Put(r); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := a.Put(recs[0]); !errors.Is(err, stores.ErrExists) {
		t.Errorf("duplicate: %v", err)
	}
	got, err := a.Get(recs[3].ID)
	if err != nil || got.Body != recs[3].Body {
		t.Errorf("Get: %v", err)
	}
	if _, err := a.Get("ghost"); !errors.Is(err, stores.ErrNotFound) {
		t.Errorf("missing: %v", err)
	}
	if err := a.Verify(); err != nil {
		t.Errorf("clean verify: %v", err)
	}
	if a.Len() != 15 {
		t.Errorf("Len = %d", a.Len())
	}
	hits, err := a.Search(ehr.CommonCondition())
	if err != nil || len(hits) == 0 {
		t.Errorf("Search: %d hits, %v", len(hits), err)
	}
}

func TestVaultDetectsCiphertextTamper(t *testing.T) {
	a, _ := newAdapter(t)
	recs := ehr.NewGenerator(21, testEpoch).Corpus(10)
	for _, r := range recs {
		if err := a.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.TamperRecord(recs[5].ID, func(b []byte) []byte {
		b[len(b)/2] ^= 0xFF
		return b
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(); !errors.Is(err, stores.ErrTampered) {
		t.Errorf("tamper undetected by Verify: %v", err)
	}
	if _, err := a.Get(recs[5].ID); err == nil {
		t.Error("tampered record served")
	}
}

// TestTamperRecordOnExplicitDir: the insider's in-place rewrite works on any
// vault, not only on one opened without a Dir, and Verify still catches it.
func TestTamperRecordOnExplicitDir(t *testing.T) {
	v, err := Open(Config{Name: "hospital-test", Master: mustKey(t), Clock: mustClock(),
		Dir: "vault", FS: faultfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	a, err := NewAdapter(v)
	if err != nil {
		t.Fatal(err)
	}
	recs := ehr.NewGenerator(23, testEpoch).Corpus(4)
	for _, r := range recs {
		if err := a.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.TamperRecord(recs[2].ID, func(b []byte) []byte {
		b[0] ^= 0x01
		return b
	}); err != nil {
		t.Fatalf("TamperRecord: %v", err)
	}
	if err := a.Verify(); !errors.Is(err, stores.ErrTampered) {
		t.Errorf("bit flip undetected by Verify: %v", err)
	}
}

func TestVaultDetectsMetadataRollback(t *testing.T) {
	a, v := newAdapter(t)
	g := ehr.NewGenerator(22, testEpoch)
	rec := g.Next()
	if err := a.Put(rec); err != nil {
		t.Fatal(err)
	}
	corr := g.Correction(rec)
	if err := a.Correct(corr); err != nil {
		t.Fatal(err)
	}
	// Insider hides the correction by truncating the version list.
	if err := a.RollbackMetadata(rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyAll(nil, nil); !errors.Is(err, ErrTampered) {
		t.Errorf("metadata rollback undetected: %v", err)
	}
}

func TestVaultDetectsHistoryRewriteViaRememberedHead(t *testing.T) {
	// Two vaults share the same master (same signing identity). The evil
	// one rewrites an early record. Against a remembered head from the
	// honest vault, the evil vault cannot prove consistency.
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *Cluster {
		v, err := Open(Config{Name: name, Master: master})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Close() })
		registerStaff(t, v)
		return v
	}
	honest, evil := mk("honest"), mk("evil")
	g1 := ehr.NewGenerator(23, testEpoch)
	g2 := ehr.NewGenerator(23, testEpoch)
	for i := 0; i < 10; i++ {
		r1, r2 := g1.Next(), g2.Next()
		if i == 3 {
			r2.Body = "REWRITTEN HISTORY"
		}
		actor := "dr-house"
		if r1.Category == ehr.CategoryBilling {
			actor = "clerk-bob"
		}
		if r1.Category == ehr.CategoryOccupational {
			continue
		}
		if _, err := honest.PutCtx(context.Background(), actor, r1); err != nil {
			t.Fatal(err)
		}
		if _, err := evil.PutCtx(context.Background(), actor, r2); err != nil {
			t.Fatal(err)
		}
	}
	remembered := honest.Shard(0).Head()
	if _, err := honest.VerifyAll([]merkle.SignedTreeHead{remembered}, nil); err != nil {
		t.Errorf("honest vault failed: %v", err)
	}
	if _, err := evil.VerifyAll([]merkle.SignedTreeHead{remembered}, nil); !errors.Is(err, ErrTampered) {
		t.Errorf("history rewrite undetected: %v", err)
	}
}

func TestVaultAtRestLeaksNothing(t *testing.T) {
	a, _ := newAdapter(t)
	recs := ehr.NewGenerator(24, testEpoch).Corpus(20)
	for _, r := range recs {
		if err := a.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	raw := a.RawBytes()
	if len(raw) == 0 {
		t.Fatal("RawBytes empty")
	}
	for _, r := range recs[:5] {
		if bytes.Contains(raw, []byte(r.Patient)) {
			t.Errorf("patient name %q visible at rest", r.Patient)
		}
		if bytes.Contains(raw, []byte(r.Body)) {
			t.Error("record body visible at rest")
		}
	}
	for _, kw := range ehr.ConditionNames()[:3] {
		if bytes.Contains(raw, []byte(kw)) {
			t.Errorf("index keyword %q visible at rest", kw)
		}
	}
}

func TestShredLeavesNoRecoverablePlaintext(t *testing.T) {
	a, v := newAdapter(t)
	rec := ehr.NewGenerator(25, testEpoch).Next()
	rec.CreatedAt = testEpoch.Add(-40 * 365 * 24 * time.Hour) // long expired
	if err := a.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := a.Dispose(rec.ID); err != nil {
		t.Fatalf("Dispose: %v", err)
	}
	if bytes.Contains(a.RawBytes(), []byte(rec.Patient)) {
		t.Error("plaintext recoverable after shred")
	}
	// Even the vault itself, holding every surviving key, cannot read it.
	if _, _, err := v.GetCtx(context.Background(), "dr-house", rec.ID); !errors.Is(err, ErrShredded) {
		t.Errorf("Get after shred: %v", err)
	}
}

func TestAuditChainSurvivesAndDetects(t *testing.T) {
	_, v := newAdapter(t)
	rec := clinicalRecord(t, 26)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := v.GetCtx(context.Background(), "dr-house", rec.ID); err != nil {
			t.Fatal(err)
		}
	}
	events, err := v.AuditEventsCtx(context.Background(), "officer-kim", audit.Query{Record: rec.ID, Action: audit.ActionRead})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Errorf("audited %d reads, want 5", len(events))
	}
	// Every event names the actor and outcome.
	for _, e := range events {
		if e.Actor != "dr-house" || e.Outcome != audit.OutcomeAllowed {
			t.Errorf("event malformed: %s", e)
		}
		if strings.Contains(e.Detail, rec.Patient) {
			t.Error("audit detail contains PHI")
		}
	}
}
