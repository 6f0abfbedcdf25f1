package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/obs"
	"medvault/internal/provenance"
	"medvault/internal/retention"
	"medvault/internal/vcrypto"
)

// opsTotal sums every series of medvault_core_ops_total.
func opsTotal() float64 {
	var n float64
	for _, f := range obs.Default.Snapshot() {
		if f.Name == "medvault_core_ops_total" {
			for _, s := range f.Series {
				n += s.Value
			}
		}
	}
	return n
}

// countSpans counts the spans named name anywhere in the tree.
func countSpans(spans []*obs.Span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
		n += countSpans(s.Children, name)
	}
	return n
}

// notOperations are core.API's methods that are not operations: no envelope
// runs them, so they leave no completion event. Each says why.
var notOperations = map[string]string{
	"Name":           "the vault's configured name",
	"PublicKey":      "the signing identity, fixed at Open",
	"Sign":           "a purpose-bound signature over the caller's bytes; reads no record",
	"Health":         "the liveness report, which must answer on a closed or wedged vault",
	"Close":          "shuts the envelope's gate rather than passing through it",
	"Len":            "a count of live records",
	"StorageBytes":   "the ciphertext bytes on the medium",
	"Heads":          "each shard's latest signed tree head, already signed",
	"Authz":          "the authorizer, for principal and role setup",
	"Retention":      "the retention manager, for schedules and holds setup",
	"VersionCount":   "a record's version count, unaudited, for harnesses",
	"RecordIDs":      "the live record IDs, unaudited, for harnesses",
	"ExpiredRecords": "the retention manager's disposition work list",
}

// TestEveryOperationEmitsOneCompletionEvent runs every operation of core.API
// on an open vault and again on a closed one, at one shard and at four: each
// method of the interface is a case, named by its first word, or one of
// notOperations, never both. Each call must leave exactly one flight event of
// its kind whose outcome is Outcome(err), one medvault_core_ops_total
// increment, nothing in flight afterwards, and — on a traced context — one
// core.<op> span. On four shards an operation that asks every shard for its
// part (search, listings, audit queries, verify, sanitize) completes once per
// shard, each part with the request's outcome; a routed record operation, a
// break-glass grant and an accounting of disclosures complete once.
func TestEveryOperationEmitsOneCompletionEvent(t *testing.T) {
	rec := clinicalRecord(t, 1)
	fresh := clinicalRecord(t, 2)
	fresh.ID = "envelope-fresh"
	corrected := rec
	corrected.Body += " (amended)"

	// Import bundles come from a donor vault.
	donor, _ := newVault(t)
	imported := clinicalRecord(t, 3)
	imported.ID = "envelope-imported"
	if _, err := donor.PutCtx(context.Background(), "dr-house", imported); err != nil {
		t.Fatal(err)
	}
	bundle, err := donor.Export("arch-lee", imported.ID)
	if err != nil {
		t.Fatal(err)
	}

	bg := context.Background()
	cases := []struct {
		name string // API method, for messages
		op   string // flight kind and op label
		want string // outcome on the open vault
		prep func(*Cluster, *clock.Virtual)
		run  func(context.Context, *Cluster) error
		// untraced operations take no context, so carry no span.
		untraced bool
		perShard bool // completes once per shard
	}{
		{name: "PutCtx", op: "put", want: "ok", run: func(ctx context.Context, v *Cluster) error {
			_, err := v.PutCtx(ctx, "dr-house", fresh)
			return err
		}},
		{name: "GetCtx", op: "get", want: "ok", run: func(ctx context.Context, v *Cluster) error {
			_, _, err := v.GetCtx(ctx, "dr-house", rec.ID)
			return err
		}},
		{name: "GetCtx denied", op: "get", want: "denied", run: func(ctx context.Context, v *Cluster) error {
			_, _, err := v.GetCtx(ctx, "clerk-bob", rec.ID)
			return err
		}},
		{name: "GetVersionCtx", op: "get_version", want: "ok", run: func(ctx context.Context, v *Cluster) error {
			_, _, err := v.GetVersionCtx(ctx, "dr-house", rec.ID, 1)
			return err
		}},
		{name: "HistoryCtx", op: "history", want: "ok", run: func(ctx context.Context, v *Cluster) error {
			_, err := v.HistoryCtx(ctx, "dr-house", rec.ID)
			return err
		}},
		{name: "CorrectCtx", op: "correct", want: "ok", run: func(ctx context.Context, v *Cluster) error {
			_, err := v.CorrectCtx(ctx, "dr-house", corrected)
			return err
		}},
		{name: "ShredCtx", op: "shred", want: "ok",
			prep: func(_ *Cluster, vc *clock.Virtual) { vc.Advance(40 * 365 * 24 * time.Hour) },
			run:  func(ctx context.Context, v *Cluster) error { return v.ShredCtx(ctx, "arch-lee", rec.ID) }},
		{name: "ShredCtx inside retention", op: "shred", want: "retention_active",
			run: func(ctx context.Context, v *Cluster) error { return v.ShredCtx(ctx, "arch-lee", rec.ID) }},
		{name: "ShredCtx under hold", op: "shred", want: "on_hold",
			prep: func(v *Cluster, vc *clock.Virtual) {
				vc.Advance(40 * 365 * 24 * time.Hour)
				if err := v.PlaceHoldCtx(bg, "arch-lee", rec.ID, "litigation"); err != nil {
					t.Fatal(err)
				}
			},
			run: func(ctx context.Context, v *Cluster) error { return v.ShredCtx(ctx, "arch-lee", rec.ID) }},
		{name: "SearchCtx", op: "search", want: "ok", perShard: true, run: func(ctx context.Context, v *Cluster) error {
			_, err := v.SearchCtx(ctx, "dr-house", "patient")
			return err
		}},
		{name: "SearchAllCtx", op: "search", want: "ok", perShard: true, run: func(ctx context.Context, v *Cluster) error {
			_, err := v.SearchAllCtx(ctx, "dr-house", "patient", "note")
			return err
		}},
		{name: "PlaceHoldCtx", op: "place_hold", want: "ok", run: func(ctx context.Context, v *Cluster) error {
			return v.PlaceHoldCtx(ctx, "arch-lee", rec.ID, "litigation")
		}},
		{name: "PlaceHoldCtx without reason", op: "place_hold", want: "error", run: func(ctx context.Context, v *Cluster) error {
			return v.PlaceHoldCtx(ctx, "arch-lee", rec.ID, "")
		}},
		{name: "ReleaseHoldCtx", op: "release_hold", want: "ok", run: func(ctx context.Context, v *Cluster) error {
			return v.ReleaseHoldCtx(ctx, "arch-lee", rec.ID)
		}},
		{name: "BreakGlassCtx", op: "break_glass", want: "ok", run: func(ctx context.Context, v *Cluster) error {
			return v.BreakGlassCtx(ctx, "clerk-bob", "code blue", time.Hour)
		}},
		{name: "BreakGlassCtx without reason", op: "break_glass", want: "invalid", run: func(ctx context.Context, v *Cluster) error {
			return v.BreakGlassCtx(ctx, "clerk-bob", "", time.Hour)
		}},
		{name: "AuditEventsCtx", op: "audit_events", want: "ok", perShard: true, run: func(ctx context.Context, v *Cluster) error {
			_, err := v.AuditEventsCtx(ctx, "officer-kim", audit.Query{Record: rec.ID})
			return err
		}},
		{name: "ProvenanceCtx", op: "provenance", want: "ok", run: func(ctx context.Context, v *Cluster) error {
			_, err := v.ProvenanceCtx(ctx, "officer-kim", rec.ID)
			return err
		}},
		{name: "ProveVersionCtx", op: "prove_version", want: "ok", run: func(ctx context.Context, v *Cluster) error {
			_, err := v.ProveVersionCtx(ctx, "dr-house", rec.ID, 1)
			return err
		}},
		{name: "ProveVersionSinceCtx", op: "prove_version", want: "ok",
			prep: func(v *Cluster, _ *clock.Virtual) {
				if _, err := v.CorrectCtx(bg, "dr-house", corrected); err != nil {
					t.Fatal(err)
				}
			},
			run: func(ctx context.Context, v *Cluster) error {
				_, err := v.ProveVersionSinceCtx(ctx, "dr-house", rec.ID, 1, 1)
				return err
			}},
		{name: "PatientRecordsCtx", op: "patient_records", want: "ok", perShard: true, run: func(ctx context.Context, v *Cluster) error {
			_, err := v.PatientRecordsCtx(ctx, "dr-house", rec.MRN)
			return err
		}},
		{name: "AccountingOfDisclosuresCtx", op: "disclosures", want: "ok", run: func(ctx context.Context, v *Cluster) error {
			_, err := v.AccountingOfDisclosuresCtx(ctx, "officer-kim", rec.MRN)
			return err
		}},
		{name: "AccountingOfDisclosuresCtx unknown MRN", op: "disclosures", want: "not_found", run: func(ctx context.Context, v *Cluster) error {
			_, err := v.AccountingOfDisclosuresCtx(ctx, "officer-kim", "no-such-mrn")
			return err
		}},
		{name: "Export", op: "export", want: "ok", untraced: true, run: func(_ context.Context, v *Cluster) error {
			_, err := v.Export("arch-lee", rec.ID)
			return err
		}},
		{name: "Import", op: "import", want: "ok", untraced: true, run: func(_ context.Context, v *Cluster) error {
			return v.Import("arch-lee", bundle, "donor")
		}},
		{name: "ImportRestored", op: "import_restored", want: "ok", untraced: true, run: func(_ context.Context, v *Cluster) error {
			return v.ImportRestored("arch-lee", bundle, "archive")
		}},
		{name: "RecordBackedUp", op: "record_backed_up", want: "ok", untraced: true, run: func(_ context.Context, v *Cluster) error {
			return v.RecordBackedUp("arch-lee", rec.ID, "tape-7")
		}},
		{name: "RecordMigratedOut", op: "record_migrated_out", want: "ok", untraced: true, run: func(_ context.Context, v *Cluster) error {
			return v.RecordMigratedOut("arch-lee", rec.ID, "county-ehr")
		}},
		{name: "VerifyAll", op: "verify_all", want: "ok", untraced: true, perShard: true, run: func(_ context.Context, v *Cluster) error {
			_, err := v.VerifyAll(nil, nil)
			return err
		}},
		{name: "VerifyCtx", op: "verify_all", want: "ok", untraced: true, perShard: true, run: func(ctx context.Context, v *Cluster) error {
			_, err := v.VerifyCtx(ctx, "officer-kim")
			return err
		}},
		{name: "VerifyCtx denied", op: "verify_all", want: "denied", untraced: true, perShard: true, run: func(ctx context.Context, v *Cluster) error {
			_, err := v.VerifyCtx(ctx, "dr-house")
			return err
		}},
		{name: "SanitizeMedia", op: "sanitize", want: "ok", untraced: true, perShard: true, run: func(_ context.Context, v *Cluster) error {
			_, _, err := v.SanitizeMedia("arch-lee")
			return err
		}},
	}

	api, cluster := reflect.TypeOf((*API)(nil)).Elem(), reflect.TypeOf((*Cluster)(nil))
	covered := map[string]bool{}
	for _, tc := range cases {
		method := strings.Fields(tc.name)[0]
		if _, ok := cluster.MethodByName(method); !ok {
			t.Errorf("case %q names no method of *Cluster", tc.name)
		}
		covered[method] = true
	}
	for i := 0; i < api.NumMethod(); i++ {
		method := api.Method(i).Name
		_, notOp := notOperations[method]
		if covered[method] == notOp {
			t.Errorf("core.API.%s: a case %v, a listed non-operation %v; want exactly one", method, covered[method], notOp)
		}
	}
	for method := range notOperations {
		if _, ok := api.MethodByName(method); !ok {
			t.Errorf("non-operation %s is not a method of core.API", method)
		}
	}

	for _, shards := range []int{1, 4} {
		for _, closed := range []bool{false, true} {
			for _, tc := range cases {
				want, n := tc.want, 1
				if closed {
					want = "closed"
				}
				if tc.perShard {
					n = shards
				}
				flight, vc := obs.NewFlight(64), mustClock()
				v, err := Open(Config{Name: "envelope", Master: mustKey(t), Clock: vc, Flight: flight, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				registerStaff(t, v)
				if _, err := v.PutCtx(bg, "dr-house", rec); err != nil {
					t.Fatal(err)
				}
				if tc.prep != nil {
					tc.prep(v, vc)
				}
				if closed {
					if err := v.Close(); err != nil {
						t.Fatal(err)
					}
				}

				before, ops := flight.Len(), opsTotal()
				ctx, tr := obs.NewTracer(obs.TracerConfig{}).Start(bg, "test", "")
				err = tc.run(ctx, v)
				v.Close()

				name := fmt.Sprintf("%s (shards=%d closed=%v)", tc.name, shards, closed)
				evs := flight.Snapshot(obs.FlightFilter{})[:flight.Len()-before] // newest first
				if len(evs) != n {
					t.Errorf("%s: %d flight events, want %d: %+v", name, len(evs), n, evs)
				}
				for _, ev := range evs {
					if ev.Kind != tc.op || ev.Outcome != Outcome(err) || ev.Outcome != want {
						t.Errorf("%s: event %s/%s for err %v, want %s/%s", name, ev.Kind, ev.Outcome, err, tc.op, want)
					}
				}
				if got := opsTotal() - ops; got != float64(n) {
					t.Errorf("%s: medvault_core_ops_total rose by %v, want %d", name, got, n)
				}
				if v := metInflightOps.Value(); v != 0 {
					t.Errorf("%s: medvault_core_inflight_ops = %v after return", name, v)
				}
				if age := obs.ActiveOps.Oldest(); age != 0 {
					t.Errorf("%s: an op is still tracked as active (%v old)", name, age)
				}
				if got := countSpans(tr.Spans, "core."+tc.op); !tc.untraced && got != n {
					t.Errorf("%s: %d core.%s spans, want %d", name, got, tc.op, n)
				}
			}
		}
	}
}

// TestOutcomeTable pins the label of every sentinel an operation can return,
// through wrapping, and the outage-first rule.
func TestOutcomeTable(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{ErrClosed, "closed"},
		{ErrWedged, "wedged"},
		{audit.ErrWedged, "wedged"},
		{provenance.ErrWedged, "wedged"},
		{blockstore.ErrWedged, "wedged"},
		{errors.Join(ErrDenied, ErrClosed), "closed"},
		{ErrDenied, "denied"},
		{ErrNotFound, "not_found"},
		{ErrShredded, "shredded"},
		{ErrExists, "exists"},
		{ErrIdentityChanged, "identity_changed"},
		{ErrTampered, "tampered"},
		{retention.ErrOnHold, "on_hold"},
		{retention.ErrRetentionActive, "retention_active"},
		{ehr.Record{}.Validate(), "invalid"},
		{authz.ErrEmptyReason, "invalid"},
		{authz.ErrBadDuration, "invalid"},
		{authz.ErrUnknownPrincipal, "invalid"},
		{vcrypto.ErrBadKey, "error"},
	} {
		err := tc.err
		if err != nil {
			err = errors.Join(errors.New("wrapped"), err)
		}
		if got := Outcome(err); got != tc.want {
			t.Errorf("Outcome(%v) = %q, want %q", err, got, tc.want)
		}
	}
	if labels := OutcomeLabels(); len(labels) != 13 || labels[0] != "ok" || labels[1] != "error" {
		t.Errorf("OutcomeLabels() = %v", labels)
	}
}
