package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"medvault/internal/audit"
	"medvault/internal/ehr"
)

func TestAccountingOfDisclosures(t *testing.T) {
	v, _ := newVault(t)
	mk := func(id string) ehr.Record {
		return ehr.Record{
			ID: id, MRN: "mrn-777", Patient: "Keiko Tanaka",
			Category: ehr.CategoryClinical, Author: "dr-house",
			CreatedAt: testEpoch, Title: "note", Body: "asthma follow-up",
		}
	}
	recA, recB := mk("mrn-777/enc-0"), mk("mrn-777/enc-1")
	other := ehr.Record{
		ID: "mrn-888/enc-0", MRN: "mrn-888", Patient: "Omar Haddad",
		Category: ehr.CategoryClinical, Author: "dr-house",
		CreatedAt: testEpoch, Title: "note", Body: "unrelated",
	}
	for _, r := range []ehr.Record{recA, recB, other} {
		if _, err := v.PutCtx(context.Background(), "dr-house", r); err != nil {
			t.Fatal(err)
		}
	}
	// Accesses: two reads by the physician, one read by the nurse, one
	// denied attempt by the clerk, one break-glass read by the clerk.
	v.GetCtx(context.Background(), "dr-house", recA.ID)
	v.GetCtx(context.Background(), "dr-house", recB.ID)
	v.GetCtx(context.Background(), "nurse-joy", recA.ID)
	v.GetCtx(context.Background(), "clerk-bob", recA.ID) // denied
	if err := v.BreakGlassCtx(context.Background(), "clerk-bob", "after-hours emergency", time.Hour); err != nil {
		t.Fatal(err)
	}
	v.GetCtx(context.Background(), "clerk-bob", recA.ID) // break-glass read
	v.GetCtx(context.Background(), "dr-house", other.ID) // different patient: must not appear

	disclosures, err := v.AccountingOfDisclosuresCtx(context.Background(), "officer-kim", "mrn-777")
	if err != nil {
		t.Fatal(err)
	}
	// 2 creates + 2 physician reads + 1 nurse read + 1 denied + 1 BG read.
	if len(disclosures) != 7 {
		t.Fatalf("got %d disclosures, want 7: %+v", len(disclosures), disclosures)
	}
	var denied, breakGlass, reads int
	for _, d := range disclosures {
		if d.Record != recA.ID && d.Record != recB.ID {
			t.Errorf("foreign record %s in accounting", d.Record)
		}
		if d.Outcome == audit.OutcomeDenied {
			denied++
		}
		if d.BreakGlass {
			breakGlass++
		}
		if d.Action == audit.ActionRead {
			reads++
		}
	}
	if denied != 1 {
		t.Errorf("denied = %d, want 1", denied)
	}
	if breakGlass != 1 {
		t.Errorf("break-glass flagged = %d, want 1", breakGlass)
	}
	if reads != 5 {
		t.Errorf("reads = %d, want 5", reads)
	}
	// Chronological order.
	for i := 1; i < len(disclosures); i++ {
		if disclosures[i].Timestamp.Before(disclosures[i-1].Timestamp) {
			t.Error("disclosures out of order")
		}
	}

	// Authorization: physicians cannot pull accountings.
	if _, err := v.AccountingOfDisclosuresCtx(context.Background(), "dr-house", "mrn-777"); !errors.Is(err, ErrDenied) {
		t.Errorf("physician accounting: %v", err)
	}
	// Unknown MRN.
	if _, err := v.AccountingOfDisclosuresCtx(context.Background(), "officer-kim", "mrn-000"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown MRN: %v", err)
	}
}

func TestPatientRecords(t *testing.T) {
	v, _ := newVault(t)
	clin := ehr.Record{
		ID: "mrn-9/enc-0", MRN: "mrn-9", Patient: "P", Category: ehr.CategoryClinical,
		Author: "dr-house", CreatedAt: testEpoch, Title: "t", Body: "b",
	}
	bill := ehr.Record{
		ID: "mrn-9/bill-0", MRN: "mrn-9", Patient: "P", Category: ehr.CategoryBilling,
		Author: "clerk-bob", CreatedAt: testEpoch, Title: "t", Body: "b",
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", clin); err != nil {
		t.Fatal(err)
	}
	if _, err := v.PutCtx(context.Background(), "clerk-bob", bill); err != nil {
		t.Fatal(err)
	}
	// The physician sees the clinical record only; the clerk the billing one.
	got, err := v.PatientRecordsCtx(context.Background(), "dr-house", "mrn-9")
	if err != nil || len(got) != 1 || got[0] != clin.ID {
		t.Errorf("physician view = %v, %v", got, err)
	}
	got, err = v.PatientRecordsCtx(context.Background(), "clerk-bob", "mrn-9")
	if err != nil || len(got) != 1 || got[0] != bill.ID {
		t.Errorf("clerk view = %v, %v", got, err)
	}
	// Shredded records drop out of the patient view (but stay in the
	// accounting, which TestAccountingOfDisclosures covers).
	if got, _ := v.PatientRecordsCtx(context.Background(), "dr-house", "mrn-none"); len(got) != 0 {
		t.Errorf("unknown MRN view = %v", got)
	}
}

func TestDisclosuresSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	master, vc := mustKey(t), mustClock()
	v := openDurable(t, dir, master, vc)
	rec := ehr.Record{
		ID: "mrn-5/enc-0", MRN: "mrn-5", Patient: "P", Category: ehr.CategoryClinical,
		Author: "dr-house", CreatedAt: testEpoch, Title: "t", Body: "b",
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	v.GetCtx(context.Background(), "dr-house", rec.ID)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir, master, vc)
	defer re.Close()
	// MRN association recovered from the snapshot.
	if err := re.Authz().AddPrincipal("officer-kim", "compliance-officer"); err != nil {
		t.Fatal(err)
	}
	disclosures, err := re.AccountingOfDisclosuresCtx(context.Background(), "officer-kim", "mrn-5")
	if err != nil {
		t.Fatal(err)
	}
	if len(disclosures) != 2 { // create + read
		t.Errorf("disclosures after reopen = %d, want 2", len(disclosures))
	}
}
