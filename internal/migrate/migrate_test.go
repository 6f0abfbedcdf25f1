package migrate

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/provenance"
	"medvault/internal/vcrypto"
)

var epoch = time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)

func newVault(t *testing.T, name string) *core.Cluster {
	t.Helper()
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.Open(core.Config{Name: name, Master: master, Clock: clock.NewVirtual(epoch)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	a := v.Authz()
	for _, r := range authz.StandardRoles() {
		a.DefineRole(r)
	}
	for id, role := range map[string]string{
		"dr-house": "physician", "arch-lee": "archivist", "officer-kim": "compliance-officer",
	} {
		if err := a.AddPrincipal(id, role); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// seed populates v with n clinical records (with one correction each on
// every third record) and returns their IDs.
func seed(t *testing.T, v *core.Cluster, n int, genSeed int64) []string {
	t.Helper()
	g := ehr.NewGenerator(genSeed, epoch)
	var ids []string
	for len(ids) < n {
		r := g.Next()
		if r.Category != ehr.CategoryClinical && r.Category != ehr.CategoryLab {
			continue
		}
		if _, err := v.PutCtx(context.Background(), "dr-house", r); err != nil {
			t.Fatal(err)
		}
		if len(ids)%3 == 0 {
			if _, err := v.CorrectCtx(context.Background(), "dr-house", g.Correction(r)); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, r.ID)
	}
	return ids
}

func TestMigrationRoundTrip(t *testing.T) {
	source := newVault(t, "hospital-a")
	target := newVault(t, "hospital-b")
	ids := seed(t, source, 10, 1)

	rep, err := Run(source, target, ids, Options{Actor: "arch-lee"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Migrated) != 10 || len(rep.Failed) != 0 {
		t.Fatalf("migrated %d, failed %v", len(rep.Migrated), rep.Failed)
	}
	if rep.BytesSent == 0 {
		t.Error("BytesSent not accounted")
	}
	if err := rep.Manifest.Verify(); err != nil {
		t.Errorf("manifest does not verify: %v", err)
	}

	// Content identical on the target, including full version history.
	for _, id := range ids {
		srcRec, srcVer, err := source.GetCtx(context.Background(), "dr-house", id)
		if err != nil {
			t.Fatal(err)
		}
		tgtRec, tgtVer, err := target.GetCtx(context.Background(), "dr-house", id)
		if err != nil {
			t.Fatalf("target Get(%s): %v", id, err)
		}
		if srcRec.Body != tgtRec.Body || srcVer.Number != tgtVer.Number {
			t.Errorf("%s differs after migration", id)
		}
		srcHist, _ := source.HistoryCtx(context.Background(), "dr-house", id)
		tgtHist, _ := target.HistoryCtx(context.Background(), "dr-house", id)
		if len(srcHist) != len(tgtHist) {
			t.Errorf("%s history truncated: %d vs %d", id, len(srcHist), len(tgtHist))
		}
	}

	// The target vault passes full verification after ingesting.
	if _, err := target.VerifyAll(nil, nil); err != nil {
		t.Errorf("target VerifyAll: %v", err)
	}
	// Custody chains span both systems, in order.
	chain, err := target.ProvenanceCtx(context.Background(), "officer-kim", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	var types []provenance.EventType
	for _, e := range chain {
		types = append(types, e.Type)
	}
	if chain[len(chain)-1].Type != provenance.EventMigratedIn {
		t.Errorf("custody chain = %v", types)
	}
	systems := map[string]bool{}
	for _, e := range chain {
		systems[e.System] = true
	}
	if !systems["hospital-a"] || !systems["hospital-b"] {
		t.Errorf("custody does not span systems: %v", types)
	}
	// Source recorded the departure.
	srcChain, err := source.ProvenanceCtx(context.Background(), "officer-kim", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if srcChain[len(srcChain)-1].Type != provenance.EventMigratedOut {
		t.Error("source custody missing migrated-out")
	}
}

func TestMigrationDetectsInTransitTampering(t *testing.T) {
	source := newVault(t, "a")
	target := newVault(t, "b")
	ids := seed(t, source, 5, 2)

	// Corrupt one byte inside every transferred bundle's record content.
	evil := func(b []byte) []byte {
		out := append([]byte(nil), b...)
		// Flip a byte in the middle of the payload (inside record bytes).
		out[len(out)/2] ^= 0x01
		return out
	}
	rep, err := Run(source, target, ids, Options{Actor: "arch-lee", Channel: evil})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Migrated) != 0 {
		t.Errorf("tampered bundles accepted: %v", rep.Migrated)
	}
	if len(rep.Failed) != 5 {
		t.Errorf("failed = %v", rep.Failed)
	}
	for id, ferr := range rep.Failed {
		if !errors.Is(ferr, ErrBundleMismatch) && !errors.Is(ferr, core.ErrBadBundle) &&
			!errors.Is(ferr, provenance.ErrCorrupt) && !strings.Contains(ferr.Error(), "custody") {
			t.Errorf("%s failed with unexpected error: %v", id, ferr)
		}
	}
	if target.Len() != 0 {
		t.Errorf("target ingested %d tampered records", target.Len())
	}
}

func TestMigrationDetectsContentSwap(t *testing.T) {
	source := newVault(t, "a")
	target := newVault(t, "b")
	ids := seed(t, source, 4, 3)

	// A smarter adversary swaps in a *well-formed* bundle whose content
	// differs (decode, edit, re-encode — keeping declared hashes intact
	// fails re-hashing; recomputing them fails the manifest).
	evil := func(b []byte) []byte {
		bundle, err := core.DecodeBundle(b)
		if err != nil {
			t.Fatal(err)
		}
		bundle.Versions[0].Record.Body = "falsified treatment history"
		// Recompute the declared hash so the bundle is self-consistent.
		bundle.Versions[0].PlainHash = vcrypto.Hash(core.CanonicalRecordBytes(bundle.Versions[0].Record))
		return core.EncodeBundle(bundle)
	}
	rep, err := Run(source, target, ids, Options{Actor: "arch-lee", Channel: evil})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Migrated) != 0 {
		t.Errorf("swapped content accepted: %v", rep.Migrated)
	}
	for _, ferr := range rep.Failed {
		if !errors.Is(ferr, ErrBundleMismatch) {
			t.Errorf("unexpected error class: %v", ferr)
		}
	}
}

func TestMigrationManifestForgery(t *testing.T) {
	source := newVault(t, "a")
	ids := seed(t, source, 2, 4)
	target := newVault(t, "b")
	rep, err := Run(source, target, ids, Options{Actor: "arch-lee"})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Manifest
	// Mutating any field breaks the signature.
	m.Target = "attacker-site"
	if err := m.Verify(); !errors.Is(err, ErrManifestInvalid) {
		t.Errorf("mutated manifest verified: %v", err)
	}
}

func TestMigrationRequiresPermission(t *testing.T) {
	source := newVault(t, "a")
	target := newVault(t, "b")
	ids := seed(t, source, 2, 5)
	rep, err := Run(source, target, ids, Options{Actor: "dr-house"}) // physicians cannot migrate
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Migrated) != 0 {
		t.Error("unauthorized migration proceeded")
	}
	for _, ferr := range rep.Failed {
		if !errors.Is(ferr, core.ErrDenied) {
			t.Errorf("expected ErrDenied, got %v", ferr)
		}
	}
	if _, err := Run(source, target, ids, Options{}); err == nil {
		t.Error("missing actor accepted")
	}
}

func TestMigrationSkipsMissingRecords(t *testing.T) {
	source := newVault(t, "a")
	target := newVault(t, "b")
	ids := seed(t, source, 2, 6)
	rep, err := Run(source, target, append(ids, "ghost"), Options{Actor: "arch-lee"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrated) != 2 {
		t.Errorf("migrated %d, want 2", len(rep.Migrated))
	}
	if _, ok := rep.Failed["ghost"]; !ok {
		t.Error("ghost not reported as failed")
	}
}

func TestBundleCodecRoundTrip(t *testing.T) {
	source := newVault(t, "a")
	ids := seed(t, source, 3, 7)
	bundle, err := source.Export("arch-lee", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DecodeBundle(core.EncodeBundle(bundle))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != bundle.ID || len(got.Versions) != len(bundle.Versions) || len(got.Custody) != len(bundle.Custody) {
		t.Error("bundle round trip mismatch")
	}
	if !bytes.Equal(core.EncodeBundle(got), core.EncodeBundle(bundle)) {
		t.Error("bundle re-encoding differs")
	}
	if _, err := core.DecodeBundle([]byte("junk")); !errors.Is(err, core.ErrBadBundle) {
		t.Errorf("junk bundle: %v", err)
	}
}
