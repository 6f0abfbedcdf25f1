package core

import (
	"context"
	"errors"
	"testing"

	"medvault/internal/audit"
	"medvault/internal/ehr"
	"medvault/internal/provenance"
)

func TestExportAuthzAndContent(t *testing.T) {
	v, _ := newVault(t)
	g := ehr.NewGenerator(50, testEpoch)
	var rec ehr.Record
	for rec = g.Next(); rec.Category != ehr.CategoryClinical; rec = g.Next() {
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	if _, err := v.CorrectCtx(context.Background(), "dr-house", g.Correction(rec)); err != nil {
		t.Fatal(err)
	}

	// Physicians cannot export (no migrate permission).
	if _, err := v.Export("dr-house", rec.ID); !errors.Is(err, ErrDenied) {
		t.Errorf("physician export: %v", err)
	}
	bundle, err := v.Export("arch-lee", rec.ID)
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	if len(bundle.Versions) != 2 || bundle.Category != rec.Category {
		t.Errorf("bundle shape: %d versions, %s", len(bundle.Versions), bundle.Category)
	}
	if bundle.Versions[0].Record.Body == bundle.Versions[1].Record.Body {
		t.Error("versions not distinct")
	}
	if len(bundle.Custody) != 2 {
		t.Errorf("custody = %d events", len(bundle.Custody))
	}
	if _, err := v.Export("arch-lee", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("export missing: %v", err)
	}
}

func TestImportRejectsMalformedBundles(t *testing.T) {
	src, _ := newVault(t)
	dst, _ := newVault(t)
	g := ehr.NewGenerator(51, testEpoch)
	var rec ehr.Record
	for rec = g.Next(); rec.Category != ehr.CategoryClinical; rec = g.Next() {
	}
	if _, err := src.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	bundle, err := src.Export("arch-lee", rec.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Empty bundle.
	empty := bundle
	empty.Versions = nil
	if err := dst.Import("arch-lee", empty, "src"); err == nil {
		t.Error("empty bundle accepted")
	}
	// Non-contiguous versions.
	gap := bundle
	gap.Versions = append([]ExportedVersion(nil), bundle.Versions...)
	gap.Versions[0].Version.Number = 2
	if err := dst.Import("arch-lee", gap, "src"); err == nil {
		t.Error("non-contiguous bundle accepted")
	}
	// Content hash mismatch.
	badHash := bundle
	badHash.Versions = append([]ExportedVersion(nil), bundle.Versions...)
	badHash.Versions[0].PlainHash[0] ^= 1
	if err := dst.Import("arch-lee", badHash, "src"); !errors.Is(err, ErrTampered) {
		t.Errorf("hash-mismatched bundle: %v", err)
	}
	// Record/bundle ID mismatch.
	mixed := bundle
	mixed.Versions = append([]ExportedVersion(nil), bundle.Versions...)
	mixed.Versions[0].Record.ID = "other"
	mixed.Versions[0].PlainHash = plainHash(mixed.Versions[0].Record)
	if err := dst.Import("arch-lee", mixed, "src"); !errors.Is(err, ErrTampered) {
		t.Errorf("mixed bundle: %v", err)
	}

	// A custody chain that does not check out is refused before any version
	// commits, and no event of it lands on any record's chain: not one that
	// names another record (each link and signature of which is genuine),
	// not one with a flipped signature byte.
	other := g.Next()
	for ; other.Category != ehr.CategoryClinical; other = g.Next() {
	}
	if _, err := src.PutCtx(context.Background(), "dr-house", other); err != nil {
		t.Fatal(err)
	}
	otherBundle, err := src.Export("arch-lee", other.ID)
	if err != nil {
		t.Fatal(err)
	}
	foreign := bundle
	foreign.Custody = append(append([]provenance.Event(nil), bundle.Custody...), otherBundle.Custody...)
	flipped := bundle
	flipped.Custody = append([]provenance.Event(nil), bundle.Custody...)
	flipped.Custody[0].Signature = append([]byte(nil), flipped.Custody[0].Signature...)
	flipped.Custody[0].Signature[0] ^= 1
	for _, c := range []struct {
		name   string
		bundle ExportBundle
		cause  error
	}{
		{"custody event of another record", foreign, provenance.ErrChainBroken},
		{"flipped custody signature", flipped, provenance.ErrBadSignature},
	} {
		err := dst.Import("arch-lee", c.bundle, "src")
		if !errors.Is(err, ErrTampered) || !errors.Is(err, c.cause) {
			t.Errorf("%s: Import = %v, want ErrTampered and %v", c.name, err, c.cause)
		}
		if _, err := dst.VersionCount(bundle.ID); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: VersionCount after a refused import = %v, want ErrNotFound", c.name, err)
		}
		for _, id := range []string{bundle.ID, other.ID} {
			if chain, err := dst.ProvenanceCtx(context.Background(), "officer-kim", id); !errors.Is(err, provenance.ErrUnknownRecord) {
				t.Errorf("%s: custody of %s after a refused import = %d events, %v", c.name, id, len(chain), err)
			}
		}
		if _, err := dst.VerifyAll(nil, nil); err != nil {
			t.Errorf("%s: VerifyAll after a refused import: %v", c.name, err)
		}
	}

	// The honest bundle imports once, then conflicts.
	if err := dst.Import("arch-lee", bundle, "src"); err != nil {
		t.Fatalf("honest import: %v", err)
	}
	if err := dst.Import("arch-lee", bundle, "src"); !errors.Is(err, ErrExists) {
		t.Errorf("double import: %v", err)
	}
	// Importer needs permission too.
	dst2, _ := newVault(t)
	if err := dst2.Import("dr-house", bundle, "src"); !errors.Is(err, ErrDenied) {
		t.Errorf("physician import: %v", err)
	}
}

func TestVersionCountAndRecordIDs(t *testing.T) {
	v, _ := newVault(t)
	g := ehr.NewGenerator(52, testEpoch)
	var rec ehr.Record
	for rec = g.Next(); rec.Category != ehr.CategoryClinical; rec = g.Next() {
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	if n, err := v.VersionCount(rec.ID); err != nil || n != 1 {
		t.Errorf("VersionCount = %d, %v", n, err)
	}
	if _, err := v.CorrectCtx(context.Background(), "dr-house", g.Correction(rec)); err != nil {
		t.Fatal(err)
	}
	if n, _ := v.VersionCount(rec.ID); n != 2 {
		t.Errorf("VersionCount after correct = %d", n)
	}
	if _, err := v.VersionCount("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("VersionCount(ghost): %v", err)
	}
	ids := v.RecordIDs()
	if len(ids) != 1 || ids[0] != rec.ID {
		t.Errorf("RecordIDs = %v", ids)
	}
	if v.Name() == "" || v.StorageBytes() <= 0 {
		t.Error("Name/StorageBytes trivial accessors broken")
	}
}

// TestCustodyEventsNeedPermission: a backup or migration custody event is
// appended only for an actor allowed the act, and the decision is audited
// either way, as Export's is.
func TestCustodyEventsNeedPermission(t *testing.T) {
	v, _ := newVault(t)
	ctx := context.Background()
	rec := clinicalRecord(t, 52)
	if _, err := v.PutCtx(ctx, "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	chain := func() int {
		t.Helper()
		c, err := v.ProvenanceCtx(ctx, "officer-kim", rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		return len(c)
	}
	want := chain()
	for _, c := range []struct {
		action audit.Action
		record func(actor string) error
	}{
		{audit.ActionBackup, func(actor string) error { return v.RecordBackedUp(actor, rec.ID, "tape-7") }},
		{audit.ActionMigrateOut, func(actor string) error { return v.RecordMigratedOut(actor, rec.ID, "county-ehr") }},
	} {
		for _, actor := range []string{"dr-house", "nurse-joy", "nobody-at-all"} {
			if err := c.record(actor); !errors.Is(err, ErrDenied) {
				t.Errorf("%s by %s: %v, want denied", c.action, actor, err)
			}
			if got := chain(); got != want {
				t.Errorf("%s denied to %s: custody chain has %d events, want %d", c.action, actor, got, want)
			}
			evs, err := v.AuditEventsCtx(ctx, "officer-kim", audit.Query{Actor: actor, Record: rec.ID, Action: c.action, DeniedOnly: true})
			if err != nil || len(evs) != 1 {
				t.Errorf("%s denied to %s: %d denied audit events, %v; want 1", c.action, actor, len(evs), err)
			}
		}
		if err := c.record("arch-lee"); err != nil {
			t.Fatalf("%s by the archivist: %v", c.action, err)
		}
		if want++; chain() != want {
			t.Errorf("%s by the archivist: custody chain did not grow to %d", c.action, want)
		}
		evs, err := v.AuditEventsCtx(ctx, "officer-kim", audit.Query{Actor: "arch-lee", Record: rec.ID, Action: c.action})
		if err != nil || len(evs) != 1 || evs[0].Outcome != audit.OutcomeAllowed {
			t.Errorf("%s by the archivist: audit events %+v, %v; want one allowed", c.action, evs, err)
		}
	}
}
