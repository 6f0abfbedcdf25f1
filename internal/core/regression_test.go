package core

// Regression tests for the partial-failure bugs: a provenance-store failure
// after commit must not make a successful Put/Correct look failed, and
// GetVersion/History must audit unknown-record probes exactly as Get does.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"medvault/internal/audit"
	"medvault/internal/blockstore"
	"medvault/internal/provenance"
)

// failingStore wraps a Store and fails Append while armed.
type failingStore struct {
	blockstore.Store
	fail bool
}

var errInjectedAppend = errors.New("injected append failure")

func (f *failingStore) Append(data []byte) (blockstore.Ref, error) {
	if f.fail {
		return blockstore.Ref{}, errInjectedAppend
	}
	return f.Store.Append(data)
}

// withFailingProvenance rewires the vault's custody tracker onto a store
// whose Append can be made to fail on demand.
func withFailingProvenance(t *testing.T, c *Cluster) *failingStore {
	v := c.Shard(0)
	t.Helper()
	fs := &failingStore{Store: blockstore.NewMemory(0)}
	tr, err := provenance.Open(provenance.Config{
		Store:  fs,
		Signer: v.signer,
		System: v.name,
		Now:    v.clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	v.prov = tr
	return fs
}

// TestPutSurvivesProvenanceFailure: before the fix, Put returned an error
// after the version was committed, indexed, and inserted — the caller saw
// failure, but a retry got ErrExists. Now the committed Put succeeds and the
// custody gap is surfaced through the audit log instead.
func TestPutSurvivesProvenanceFailure(t *testing.T) {
	v, _ := newVault(t)
	fs := withFailingProvenance(t, v)
	rec := clinicalRecord(t, 1)

	fs.fail = true
	ver, err := v.PutCtx(context.Background(), "dr-house", rec)
	if err != nil {
		t.Fatalf("Put with failing provenance store = %v, want success (the version is committed)", err)
	}
	if ver.Number != 1 {
		t.Fatalf("version = %d, want 1", ver.Number)
	}

	// The record is fully usable.
	got, _, err := v.GetCtx(context.Background(), "dr-house", rec.ID)
	if err != nil {
		t.Fatalf("Get after degraded Put: %v", err)
	}
	if got.Body != rec.Body {
		t.Error("round-trip body mismatch")
	}

	// The custody gap is audited as an error on the create action.
	events, err := v.AuditEventsCtx(context.Background(), "officer-kim", audit.Query{Record: rec.ID})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range events {
		if e.Action == audit.ActionCreate && e.Outcome == audit.OutcomeError &&
			strings.Contains(e.Detail, "custody chain append failed") {
			found = true
		}
	}
	if !found {
		t.Error("no audit event surfaces the provenance failure")
	}

	// And crucially: a client that (wrongly) retries is told the record
	// exists — which is now consistent with the first call having succeeded.
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); !errors.Is(err, ErrExists) {
		t.Errorf("retried Put = %v, want ErrExists", err)
	}

	// Once the store heals, the integrity sweep still passes: the vault
	// never entered a half-committed state.
	fs.fail = false
	if _, err := v.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll after degraded Put: %v", err)
	}
}

// TestCorrectSurvivesProvenanceFailure mirrors the Put case for corrections.
func TestCorrectSurvivesProvenanceFailure(t *testing.T) {
	v, _ := newVault(t)
	rec := clinicalRecord(t, 2)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	fs := withFailingProvenance(t, v)

	fs.fail = true
	rec.Body += " amended after review"
	ver, err := v.CorrectCtx(context.Background(), "dr-house", rec)
	if err != nil {
		t.Fatalf("Correct with failing provenance store = %v, want success", err)
	}
	if ver.Number != 2 {
		t.Fatalf("version = %d, want 2", ver.Number)
	}
	got, gotVer, err := v.GetCtx(context.Background(), "dr-house", rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotVer.Number != 2 || !strings.Contains(got.Body, "amended") {
		t.Error("correction not visible after degraded Correct")
	}
	fs.fail = false
	if _, err := v.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll after degraded Correct: %v", err)
	}
}

// TestGetVersionAuditsUnknownProbe: Get deliberately audits failed lookups
// ("unknown-record probing is signal"); GetVersion and History previously
// skipped that, giving probers a quieter path. All three must audit.
func TestGetVersionAuditsUnknownProbe(t *testing.T) {
	v, _ := newVault(t)
	rec := clinicalRecord(t, 3)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}

	probes := []struct {
		name string
		call func() error
		id   string
	}{
		{"GetVersion unknown record", func() error {
			_, _, err := v.GetVersionCtx(context.Background(), "dr-house", "no-such-record", 1)
			return err
		}, "no-such-record"},
		{"GetVersion unknown version", func() error {
			_, _, err := v.GetVersionCtx(context.Background(), "dr-house", rec.ID, 99)
			return err
		}, rec.ID},
		{"History unknown record", func() error {
			_, err := v.HistoryCtx(context.Background(), "dr-house", "ghost-record")
			return err
		}, "ghost-record"},
	}
	for _, p := range probes {
		if err := p.call(); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: err = %v, want ErrNotFound", p.name, err)
		}
		events, err := v.AuditEventsCtx(context.Background(), "officer-kim", audit.Query{Record: p.id})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range events {
			if e.Action == audit.ActionRead && e.Outcome == audit.OutcomeError && e.Actor == "dr-house" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: probe left no audit trail", p.name)
		}
	}
}
