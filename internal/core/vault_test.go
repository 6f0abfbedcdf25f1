package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/merkle"
	"medvault/internal/provenance"
	"medvault/internal/vcrypto"
)

var testEpoch = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

// newVault builds a vault on a fresh in-memory disk with standard roles and
// a virtual clock, plus registered principals for each role.
func newVault(t *testing.T) (*Cluster, *clock.Virtual) {
	t.Helper()
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	vc := clock.NewVirtual(testEpoch)
	v, err := Open(Config{Name: "hospital-test", Master: master, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	registerStaff(t, v)
	return v, vc
}

func registerStaff(t *testing.T, v *Cluster) {
	t.Helper()
	a := v.Authz()
	for _, r := range authz.StandardRoles() {
		a.DefineRole(r)
	}
	for id, role := range map[string]string{
		"dr-house":    "physician",
		"nurse-joy":   "nurse",
		"clerk-bob":   "billing-clerk",
		"officer-kim": "compliance-officer",
		"arch-lee":    "archivist",
	} {
		if err := a.AddPrincipal(id, role); err != nil {
			t.Fatal(err)
		}
	}
}

// clinicalRecord returns a deterministic clinical record.
func clinicalRecord(t *testing.T, seq int64) ehr.Record {
	t.Helper()
	g := ehr.NewGenerator(seq, testEpoch)
	for {
		r := g.Next()
		if r.Category == ehr.CategoryClinical {
			return r
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	v, _ := newVault(t)
	rec := clinicalRecord(t, 1)
	ver, err := v.PutCtx(context.Background(), "dr-house", rec)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if ver.Number != 1 || ver.Author != "dr-house" {
		t.Errorf("version = %+v", ver)
	}
	got, gotVer, err := v.GetCtx(context.Background(), "dr-house", rec.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Body != rec.Body || gotVer.Number != 1 {
		t.Error("Get returned wrong content")
	}
	if v.Len() != 1 {
		t.Errorf("Len = %d", v.Len())
	}
}

func TestPutDuplicateAndInvalid(t *testing.T) {
	v, _ := newVault(t)
	rec := clinicalRecord(t, 2)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Put: %v", err)
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", ehr.Record{ID: "x"}); err == nil {
		t.Error("invalid record accepted")
	}
}

func TestAccessControlEnforcedAndAudited(t *testing.T) {
	v, _ := newVault(t)
	rec := clinicalRecord(t, 3)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}

	// Nurse can read clinical but not write.
	if _, _, err := v.GetCtx(context.Background(), "nurse-joy", rec.ID); err != nil {
		t.Errorf("nurse read: %v", err)
	}
	rec2 := clinicalRecord(t, 4)
	if _, err := v.PutCtx(context.Background(), "nurse-joy", rec2); !errors.Is(err, ErrDenied) {
		t.Errorf("nurse write: %v", err)
	}
	// Billing clerk cannot read clinical.
	if _, _, err := v.GetCtx(context.Background(), "clerk-bob", rec.ID); !errors.Is(err, ErrDenied) {
		t.Errorf("clerk read clinical: %v", err)
	}
	// Unknown actor denied.
	if _, _, err := v.GetCtx(context.Background(), "mallory", rec.ID); !errors.Is(err, ErrDenied) {
		t.Errorf("unknown actor: %v", err)
	}

	// Every denial must be in the audit log.
	denied, err := v.AuditEventsCtx(context.Background(), "officer-kim", audit.Query{DeniedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(denied) != 3 {
		t.Errorf("audited %d denials, want 3: %v", len(denied), denied)
	}
	// And the audit query itself requires permission.
	if _, err := v.AuditEventsCtx(context.Background(), "dr-house", audit.Query{}); !errors.Is(err, ErrDenied) {
		t.Errorf("physician read audit log: %v", err)
	}
}

func TestCorrectPreservesHistory(t *testing.T) {
	v, _ := newVault(t)
	g := ehr.NewGenerator(5, testEpoch)
	var rec ehr.Record
	for rec = g.Next(); rec.Category != ehr.CategoryClinical; rec = g.Next() {
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	corr := g.Correction(rec)
	ver2, err := v.CorrectCtx(context.Background(), "dr-house", corr)
	if err != nil {
		t.Fatalf("Correct: %v", err)
	}
	if ver2.Number != 2 {
		t.Errorf("correction version = %d", ver2.Number)
	}

	// Latest is the correction; v1 remains readable.
	latest, _, err := v.GetCtx(context.Background(), "dr-house", rec.ID)
	if err != nil || !strings.Contains(latest.Body, "AMENDMENT") {
		t.Errorf("latest not the correction: %v", err)
	}
	v1, _, err := v.GetVersionCtx(context.Background(), "dr-house", rec.ID, 1)
	if err != nil || strings.Contains(v1.Body, "AMENDMENT") {
		t.Errorf("v1 not preserved: %v", err)
	}
	hist, err := v.HistoryCtx(context.Background(), "dr-house", rec.ID)
	if err != nil || len(hist) != 2 {
		t.Fatalf("History: %d versions, %v", len(hist), err)
	}
	if hist[0].Number != 1 || hist[1].Number != 2 {
		t.Error("history out of order")
	}
	// Bad version numbers.
	if _, _, err := v.GetVersionCtx(context.Background(), "dr-house", rec.ID, 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("version 0: %v", err)
	}
	if _, _, err := v.GetVersionCtx(context.Background(), "dr-house", rec.ID, 3); !errors.Is(err, ErrNotFound) {
		t.Errorf("version 3: %v", err)
	}
	// Provenance recorded both events.
	chain, err := v.ProvenanceCtx(context.Background(), "officer-kim", rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[0].Type != provenance.EventCreated || chain[1].Type != provenance.EventCorrected {
		t.Errorf("custody chain = %v", chain)
	}
}

func TestCorrectRejectsIdentityChange(t *testing.T) {
	v, _ := newVault(t)
	rec := clinicalRecord(t, 6)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	changed := rec
	changed.Category = ehr.CategoryLab
	if _, err := v.CorrectCtx(context.Background(), "dr-house", changed); !errors.Is(err, ErrIdentityChanged) {
		t.Errorf("category change: %v", err)
	}
	// A new MRN would leave the record listed, and its disclosures
	// accounted, under version 1's patient while it reads as another's.
	moved := rec
	moved.MRN, moved.Body = rec.MRN+"-other", rec.Body+" amended"
	if _, err := v.CorrectCtx(context.Background(), "dr-house", moved); !errors.Is(err, ErrIdentityChanged) {
		t.Errorf("MRN change: %v", err)
	}
	if got, ver, err := v.GetCtx(context.Background(), "dr-house", rec.ID); err != nil || got.MRN != rec.MRN || ver.Number != 1 {
		t.Errorf("after the MRN change: GET = v%d MRN %q, %v; want v1 MRN %q", ver.Number, got.MRN, err, rec.MRN)
	}
	if ids, err := v.PatientRecordsCtx(context.Background(), "dr-house", rec.MRN); err != nil || len(ids) != 1 || ids[0] != rec.ID {
		t.Errorf("after the MRN change: PatientRecords(%s) = %v, %v; want [%s]", rec.MRN, ids, err, rec.ID)
	}
	missing := clinicalRecord(t, 7)
	missing.ID = "mrn-999999/enc-0"
	if _, err := v.CorrectCtx(context.Background(), "dr-house", missing); !errors.Is(err, ErrNotFound) {
		t.Errorf("correct missing: %v", err)
	}
}

func TestSearchFiltersByReadPermission(t *testing.T) {
	v, _ := newVault(t)
	g := ehr.NewGenerator(8, testEpoch)
	kw := ehr.CommonCondition()
	var clinicalHits, billingHits int
	for i := 0; i < 80; i++ {
		r := g.Next()
		actor := "dr-house"
		if r.Category == ehr.CategoryBilling {
			actor = "clerk-bob"
		}
		if r.Category == ehr.CategoryOccupational {
			continue // nobody in the standard roles writes these
		}
		if _, err := v.PutCtx(context.Background(), actor, r); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(r.SearchText(), kw) {
			switch r.Category {
			case ehr.CategoryClinical, ehr.CategoryLab, ehr.CategoryImaging:
				clinicalHits++
			case ehr.CategoryBilling:
				billingHits++
			}
		}
	}
	drHits, err := v.SearchCtx(context.Background(), "dr-house", kw)
	if err != nil {
		t.Fatal(err)
	}
	if len(drHits) != clinicalHits {
		t.Errorf("physician sees %d hits, want %d", len(drHits), clinicalHits)
	}
	clerkHits, err := v.SearchCtx(context.Background(), "clerk-bob", kw)
	if err != nil {
		t.Fatal(err)
	}
	if len(clerkHits) != billingHits {
		t.Errorf("clerk sees %d hits, want %d", len(clerkHits), billingHits)
	}
	// Archivist has no search permission at all.
	if _, err := v.SearchCtx(context.Background(), "arch-lee", kw); !errors.Is(err, ErrDenied) {
		t.Errorf("archivist search: %v", err)
	}
}

func TestSearchAllConjunction(t *testing.T) {
	v, _ := newVault(t)
	mk := func(id, body string) ehr.Record {
		return ehr.Record{
			ID: id, MRN: "m", Patient: "P", Category: ehr.CategoryClinical,
			Author: "dr-house", CreatedAt: testEpoch, Title: "t", Body: body,
		}
	}
	for id, body := range map[string]string{
		"a": "hypertension and diabetes managed",
		"b": "hypertension only",
		"c": "diabetes only",
	} {
		if _, err := v.PutCtx(context.Background(), "dr-house", mk(id, body)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := v.SearchAllCtx(context.Background(), "dr-house", "hypertension", "diabetes")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "a" {
		t.Errorf("SearchAll = %v, want [a]", got)
	}
	if _, err := v.SearchAllCtx(context.Background(), "arch-lee", "hypertension"); !errors.Is(err, ErrDenied) {
		t.Errorf("archivist SearchAll: %v", err)
	}
}

func TestBreakGlass(t *testing.T) {
	v, vc := newVault(t)
	rec := clinicalRecord(t, 9)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	// Clerk cannot read clinical…
	if _, _, err := v.GetCtx(context.Background(), "clerk-bob", rec.ID); !errors.Is(err, ErrDenied) {
		t.Fatal("precondition failed")
	}
	// …until break-glass.
	if err := v.BreakGlassCtx(context.Background(), "clerk-bob", "mass casualty event", time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.GetCtx(context.Background(), "clerk-bob", rec.ID); err != nil {
		t.Errorf("break-glass read: %v", err)
	}
	// The emergency access left a distinct audit trail.
	events, err := v.AuditEventsCtx(context.Background(), "officer-kim", audit.Query{Action: audit.ActionBreakGlass})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 { // grant + elevated read
		t.Errorf("break-glass events = %d, want >= 2", len(events))
	}
	// Expiry restores denial.
	vc.Advance(2 * time.Hour)
	if _, _, err := v.GetCtx(context.Background(), "clerk-bob", rec.ID); !errors.Is(err, ErrDenied) {
		t.Errorf("expired break-glass still active: %v", err)
	}
}

func TestShredLifecycle(t *testing.T) {
	v, vc := newVault(t)
	rec := clinicalRecord(t, 10)
	rec.CreatedAt = testEpoch
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	// Too early: retention refuses, and the refusal is audited.
	if err := v.ShredCtx(context.Background(), "arch-lee", rec.ID); err == nil {
		t.Fatal("shred during retention accepted")
	}
	// Unauthorized actor refused.
	vc.Advance(10 * 365 * 24 * time.Hour)
	if err := v.ShredCtx(context.Background(), "dr-house", rec.ID); !errors.Is(err, ErrDenied) {
		t.Errorf("physician shred: %v", err)
	}
	// Legal hold blocks.
	if err := v.Retention().PlaceHold(rec.ID, "litigation"); err != nil {
		t.Fatal(err)
	}
	if err := v.ShredCtx(context.Background(), "arch-lee", rec.ID); err == nil {
		t.Fatal("shred under hold accepted")
	}
	v.Retention().ReleaseHold(rec.ID)

	if err := v.ShredCtx(context.Background(), "arch-lee", rec.ID); err != nil {
		t.Fatalf("Shred: %v", err)
	}
	// Distinct from NotFound, content gone, not searchable, ID unusable.
	if _, _, err := v.GetCtx(context.Background(), "dr-house", rec.ID); !errors.Is(err, ErrShredded) {
		t.Errorf("Get after shred: %v", err)
	}
	hits, err := v.SearchCtx(context.Background(), "dr-house", ehr.CommonCondition())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range hits {
		if id == rec.ID {
			t.Error("shredded record searchable")
		}
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); !errors.Is(err, ErrShredded) {
		t.Errorf("ID reuse: %v", err)
	}
	// Custody chain records the destruction.
	chain, err := v.ProvenanceCtx(context.Background(), "officer-kim", rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if chain[len(chain)-1].Type != provenance.EventShredded {
		t.Error("shred not in custody chain")
	}
	// The vault still verifies completely after a shred.
	if _, err := v.VerifyAll(nil, nil); err != nil {
		t.Errorf("VerifyAll after shred: %v", err)
	}
}

func TestClosedVaultRefusesMutations(t *testing.T) {
	v, _ := newVault(t)
	rec := clinicalRecord(t, 70)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	other := clinicalRecord(t, 71)
	other.ID = "closed/enc-0"
	if _, err := v.PutCtx(context.Background(), "dr-house", other); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close: %v", err)
	}
	if _, err := v.CorrectCtx(context.Background(), "dr-house", rec); !errors.Is(err, ErrClosed) {
		t.Errorf("Correct after close: %v", err)
	}
	if err := v.ShredCtx(context.Background(), "arch-lee", rec.ID); !errors.Is(err, ErrClosed) {
		t.Errorf("Shred after close: %v", err)
	}
}

func TestVerifyAllCleanVault(t *testing.T) {
	v, _ := newVault(t)
	g := ehr.NewGenerator(11, testEpoch)
	var put int
	head0 := v.Shard(0).Head()
	for i := 0; i < 30; i++ {
		r := g.Next()
		if r.Category != ehr.CategoryClinical && r.Category != ehr.CategoryLab {
			continue
		}
		if _, err := v.PutCtx(context.Background(), "dr-house", r); err != nil {
			t.Fatal(err)
		}
		put++
	}
	headMid := v.Shard(0).Head()
	cp := v.Shard(0).AuditCheckpoint()
	for i := 0; i < 10; i++ {
		r := g.Next()
		if r.Category != ehr.CategoryClinical {
			continue
		}
		if _, err := v.PutCtx(context.Background(), "dr-house", r); err != nil {
			t.Fatal(err)
		}
		put++
	}
	rep, err := v.VerifyAll(
		[]merkle.SignedTreeHead{head0, headMid},
		[]audit.Checkpoint{cp},
	)
	if err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
	if rep.RecordsChecked != put || rep.VersionsChecked != put {
		t.Errorf("report = %+v, want %d records", rep, put)
	}
	if rep.HeadsChecked != 2 || rep.CheckpointsProven != 1 {
		t.Errorf("heads/checkpoints = %d/%d", rep.HeadsChecked, rep.CheckpointsProven)
	}
	if rep.AuditEvents == 0 || rep.ProvenanceChains != put {
		t.Errorf("audit/provenance = %d/%d", rep.AuditEvents, rep.ProvenanceChains)
	}
}
