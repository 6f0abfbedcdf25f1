package core

// Regression tests for the partial-failure bugs: a provenance-store failure
// after commit must not make a successful Put/Correct/Shred look failed, and
// GetVersion/History must audit unknown-record probes exactly as Get does.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"medvault/internal/audit"
	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/provenance"
	"medvault/internal/wal"
)

// failingStore wraps a Store and fails Append while armed, after letting
// pass appends through.
type failingStore struct {
	blockstore.Store
	fail bool
	pass int
}

var errInjectedAppend = errors.New("injected append failure")

func (f *failingStore) Append(data []byte) (blockstore.Ref, error) {
	if f.fail {
		if f.pass == 0 {
			return blockstore.Ref{}, errInjectedAppend
		}
		f.pass--
	}
	return f.Store.Append(data)
}

// withFailingProvenance rewires the vault's custody tracker onto its own
// custody store behind a wrapper whose Append can be made to fail on demand.
// The new tracker knows only the events on the medium, so a test calls it
// before any mutation.
func withFailingProvenance(t *testing.T, c *Cluster) *failingStore {
	v := c.Shard(0)
	t.Helper()
	fs := &failingStore{Store: v.provStore}
	tr, err := provenance.Open(provenance.Config{
		Store:   fs,
		Signer:  v.signer,
		System:  v.name,
		Now:     v.clk.Now,
		Records: v.recs,
		Pending: v.pendingCustody,
	})
	if err != nil {
		t.Fatal(err)
	}
	v.prov = tr
	return fs
}

// TestSwallowedAuditFailureWedgesTheShard: the post-commit hold event's
// append error is discarded, since the hold is committed. Before the fix the
// store healed and the next event landed after the lost one, leaving a chain
// that verifies with a gap. Now the event's meta.wal write fails and wedges
// the WAL, whose wedge is the audit log's: the shard answers wedged to every
// audited operation, and refuses to checkpoint, until it reopens, and the
// reopened chain ends where it broke.
func TestSwallowedAuditFailureWedgesTheShard(t *testing.T) {
	ctx := context.Background()
	master, vc, mem := mustKey(t), mustClock(), faultfs.NewMem()
	// pass is how many more meta.wal writes land before one fails; below 0
	// none fails.
	var pass atomic.Int32
	pass.Store(-1)
	faulty := faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		if op.Kind == faultfs.OpWrite && strings.HasSuffix(op.Path, "/meta.wal") && pass.Load() >= 0 && pass.Add(-1) < 0 {
			return &faultfs.Fault{Err: faultfs.ErrNoSpace}
		}
		return nil
	})
	open := func(fsys faultfs.FS) *Cluster {
		t.Helper()
		v, err := Open(Config{Name: "audit-wedge", Master: master, Clock: vc, Dir: "vault", FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		registerStaff(t, v)
		return v
	}
	v := open(faulty)
	rec := clinicalRecord(t, 6)
	if _, err := v.PutCtx(ctx, "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	pass.Store(2) // the hold's decision event and its entry land; its policy event fails
	if err := v.PlaceHoldCtx(ctx, "arch-lee", rec.ID, "litigation"); err != nil {
		t.Fatalf("PlaceHold with a failing hold event = %v, want success (the hold is committed)", err)
	}
	if n := pass.Load(); n != -1 {
		t.Fatalf("%d meta.wal writes left to land after the hold, want the policy event's failed", n+1)
	}
	kept := v.Shard(0).aud.Len()
	if _, _, err := v.GetCtx(ctx, "dr-house", rec.ID); Outcome(err) != "wedged" {
		t.Errorf("Get after a lost audit event = %v (%s), want wedged", err, Outcome(err))
	}
	if h := v.Health(); !h.AuditWedged {
		t.Errorf("Health().AuditWedged = false after a lost audit event")
	}
	if err := v.Close(); !errors.Is(err, wal.ErrWedged) {
		t.Errorf("Close of a wedged shard = %v, want the WAL's wedge", err)
	}

	re := open(mem)
	defer re.Close()
	if n := re.Shard(0).aud.Len(); n != kept {
		t.Errorf("reopened chain holds %d events, want the %d before the lost one", n, kept)
	}
	if _, _, err := re.GetCtx(ctx, "dr-house", rec.ID); err != nil {
		t.Errorf("Get after reopen = %v", err)
	}
	if _, err := re.VerifyAll(nil, nil); err != nil {
		t.Errorf("VerifyAll after reopen = %v", err)
	}
	if holds := re.Retention().Holds(); len(holds) != 1 || holds[0].Record != rec.ID {
		t.Errorf("holds after reopen = %+v, want the one on %s", holds, rec.ID)
	}
}

// checkOwedCustody runs mutate — a put, correction or shred of rec whose
// custody event is want — on a durable vault that prepare has set up, then
// closes it with the custody store failing from that event on, so the
// checkpoint's flush writes rec's earlier events and fails on the mutation's.
// The committed operation succeeded, retry (if any) answers as if it had,
// VerifyAll reads the pending event from meta.wal, Close fails and keeps
// meta.wal, and the next open's replay pends the owed event after the ones
// on the medium, with the version's ciphertext hash (the zero hash for a
// shred) and time.
func checkOwedCustody(t *testing.T, rec ehr.Record, want provenance.EventType, prepare func(*Cluster), mutate func(*Cluster) (Version, error), retry func(*Cluster) error) {
	t.Helper()
	ctx := context.Background()
	master, vc, mem := mustKey(t), mustClock(), faultfs.NewMem()
	open := func() *Cluster {
		t.Helper()
		v, err := Open(Config{Name: "owed", Master: master, Clock: vc, Dir: "vault", FS: mem})
		if err != nil {
			t.Fatal(err)
		}
		registerStaff(t, v)
		return v
	}
	v := open()
	fs := withFailingProvenance(t, v)
	prepare(v)
	earlier, _ := v.ProvenanceCtx(ctx, "officer-kim", rec.ID)
	ver, err := mutate(v)
	if err != nil {
		t.Fatalf("%s = %v, want success (the state is committed)", want, err)
	}
	if retry != nil {
		if err := retry(v); err != nil {
			t.Error(err)
		}
	}
	if _, err := v.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll after %s: %v", want, err)
	}
	fs.fail, fs.pass = true, len(earlier)
	if err := v.Close(); !errors.Is(err, errInjectedAppend) {
		t.Fatalf("Close with the %s event's custody append failing = %v, want the injected error", want, err)
	}
	entries := 0
	if _, _, err := wal.Read(mem, "vault/meta.wal", func(wal.Entry) error { entries++; return nil }); err != nil || entries == 0 {
		t.Fatalf("a Close that could not write a custody event left meta.wal with %d entries (%v), want it kept", entries, err)
	}
	re := open()
	defer re.Close()
	chain, err := re.ProvenanceCtx(ctx, "officer-kim", rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	last := chain[len(chain)-1]
	if len(chain) != len(earlier)+1 || last.Type != want || last.ContentHash != ver.CtHash || last.Actor == "" || !last.Timestamp.Equal(vc.Now()) {
		t.Errorf("custody chain after reopen has %d events and ends in %s by %q at %v with hash %x; want %d ending in the owed %s with hash %x at %v",
			len(chain), last.Type, last.Actor, last.Timestamp, last.ContentHash[:4], len(earlier)+1, want, ver.CtHash[:4], vc.Now())
	}
}

// TestPutSurvivesProvenanceFailure: before the fix, Put returned an error
// after the version was committed, indexed, and inserted — the caller saw
// failure, but a retry got ErrExists. Now the committed Put succeeds, and a
// custody write that fails at the checkpoint leaves its event to the next
// open.
func TestPutSurvivesProvenanceFailure(t *testing.T) {
	rec := clinicalRecord(t, 1)
	checkOwedCustody(t, rec, provenance.EventCreated, func(*Cluster) {},
		func(v *Cluster) (Version, error) {
			ver, err := v.PutCtx(context.Background(), "dr-house", rec)
			if err == nil && ver.Number != 1 {
				t.Fatalf("version = %d, want 1", ver.Number)
			}
			got, _, gerr := v.GetCtx(context.Background(), "dr-house", rec.ID)
			if err == nil && (gerr != nil || got.Body != rec.Body) {
				t.Errorf("Get after degraded Put = %v, body match %t", gerr, got.Body == rec.Body)
			}
			return ver, err
		},
		// A client that (wrongly) retries is told the record exists —
		// consistent with the first call having succeeded.
		func(v *Cluster) error {
			if _, err := v.PutCtx(context.Background(), "dr-house", rec); !errors.Is(err, ErrExists) {
				return fmt.Errorf("retried Put = %v, want ErrExists", err)
			}
			return nil
		})
}

// TestCorrectSurvivesProvenanceFailure mirrors the Put case for corrections.
func TestCorrectSurvivesProvenanceFailure(t *testing.T) {
	rec := clinicalRecord(t, 2)
	checkOwedCustody(t, rec, provenance.EventCorrected,
		func(v *Cluster) {
			if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
				t.Fatal(err)
			}
		},
		func(v *Cluster) (Version, error) {
			rec.Body += " amended after review"
			ver, err := v.CorrectCtx(context.Background(), "dr-house", rec)
			if err == nil && ver.Number != 2 {
				t.Fatalf("version = %d, want 2", ver.Number)
			}
			got, gotVer, gerr := v.GetCtx(context.Background(), "dr-house", rec.ID)
			if err == nil && (gerr != nil || gotVer.Number != 2 || !strings.Contains(got.Body, "amended")) {
				t.Errorf("correction not visible after degraded Correct: %v", gerr)
			}
			return ver, err
		}, nil)
}

// TestShredSurvivesProvenanceFailure: the shred is WAL-logged and the key
// destroyed before its custody event is written; a failing custody store must
// not lose it, and a retry is told the record is already shredded.
func TestShredSurvivesProvenanceFailure(t *testing.T) {
	rec := clinicalRecord(t, 3)
	checkOwedCustody(t, rec, provenance.EventShredded,
		func(v *Cluster) {
			if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
				t.Fatal(err)
			}
		},
		func(v *Cluster) (Version, error) {
			// Age past the clinical retention period.
			v.Shard(0).clk.(*clock.Virtual).Advance(40 * 365 * 24 * time.Hour)
			return Version{}, v.ShredCtx(context.Background(), "arch-lee", rec.ID)
		},
		func(v *Cluster) error {
			if err := v.ShredCtx(context.Background(), "arch-lee", rec.ID); !errors.Is(err, ErrShredded) {
				return fmt.Errorf("retried Shred = %v, want ErrShredded", err)
			}
			return nil
		})
}

// TestOwedCustodyKeepsAckOrder: a backup writes its record's pending events
// before its own, and once that custody append fails the shard appends no
// custody event until it reopens, even after the store heals, so a
// correction's event cannot land ahead of the create's the shard owes (a
// second backup's event, an import and Close's checkpoint are refused).
// Replay then chains both in WAL order, after a Close and after a power cut
// alike.
func TestOwedCustodyKeepsAckOrder(t *testing.T) {
	for _, crash := range []bool{false, true} {
		ctx := context.Background()
		master, vc, mem := mustKey(t), mustClock(), faultfs.NewMem()
		open := func(fsys faultfs.FS) *Cluster {
			t.Helper()
			v, err := Open(Config{Name: "owed", Master: master, Clock: vc, Dir: "vault", FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			registerStaff(t, v)
			return v
		}
		v := open(mem)
		fs := withFailingProvenance(t, v)
		rec := clinicalRecord(t, 4)
		created, err := v.PutCtx(ctx, "dr-house", rec)
		if err != nil {
			t.Fatal(err)
		}
		fs.fail = true
		if err := v.Shard(0).RecordBackedUp("arch-lee", rec.ID, "tape-0"); !errors.Is(err, errInjectedAppend) {
			t.Fatalf("backed-up event with the custody store failing = %v, want the injected error", err)
		}
		fs.fail = false
		vc.Advance(time.Hour)
		rec.Body += " amended after review"
		corrected, err := v.CorrectCtx(ctx, "dr-house", rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Shard(0).RecordBackedUp("arch-lee", rec.ID, "tape-1"); !errors.Is(err, provenance.ErrWedged) {
			t.Errorf("backed-up event while a create is owed = %v, want ErrWedged", err)
		}
		src, _ := newVault(t)
		other := clinicalRecord(t, 5)
		other.ID = "migrated-" + other.ID
		if _, err := src.PutCtx(ctx, "dr-house", other); err != nil {
			t.Fatal(err)
		}
		bundle, err := src.Export("arch-lee", other.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Import("arch-lee", bundle, "src"); !errors.Is(err, provenance.ErrWedged) {
			t.Errorf("import while a create is owed = %v, want ErrWedged", err)
		}
		if _, err := v.VersionCount(other.ID); !errors.Is(err, ErrNotFound) {
			t.Errorf("refused import left versions behind: %v", err)
		}
		img := mem
		if crash {
			img = mem.CrashImage(faultfs.KeepNone)
		} else if err := v.Close(); !errors.Is(err, provenance.ErrWedged) {
			t.Fatalf("Close while a create is owed = %v, want ErrWedged", err)
		}
		re := open(img)
		chain, err := re.ProvenanceCtx(ctx, "officer-kim", rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := []Version{created, corrected}
		if len(chain) != len(want) {
			t.Fatalf("crash=%t: custody chain has %d events after reopen, want [created, corrected]", crash, len(chain))
		}
		for i, e := range chain {
			if e.Type != custodyType(want[i].Number) || e.ContentHash != want[i].CtHash || !e.Timestamp.Equal(want[i].Timestamp) {
				t.Errorf("crash=%t: custody event %d is %s %x at %v, want %s %x at %v", crash, i,
					e.Type, e.ContentHash[:4], e.Timestamp, custodyType(want[i].Number), want[i].CtHash[:4], want[i].Timestamp)
			}
		}
		re.Close()
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

// TestProbeAuditDetailIsTheOutcome: a failed lookup's audit event names the
// probed ID in Record and nowhere else; its Detail is the outcome label. So
// probes of 1,000 distinct absent IDs add at most two details to the log
// (not_found here), where err's text made each ID a detail of its own.
func TestProbeAuditDetailIsTheOutcome(t *testing.T) {
	v, _ := newVault(t)
	ctx := context.Background()
	details := func() map[string]bool {
		t.Helper()
		events, err := v.AuditEventsCtx(ctx, "officer-kim", audit.Query{})
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, e := range events {
			set[e.Detail] = true
		}
		return set
	}
	before := details()
	const probes = 1000
	for i := 0; i < probes; i++ {
		id := fmt.Sprintf("absent-%04d", i)
		var err error
		switch i % 3 {
		case 0:
			_, _, err = v.GetCtx(ctx, "dr-house", id)
		case 1:
			_, _, err = v.GetVersionCtx(ctx, "dr-house", id, 1)
		default:
			_, err = v.HistoryCtx(ctx, "dr-house", id)
		}
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("probe of %s: %v, want ErrNotFound", id, err)
		}
	}
	var added []string
	for d := range details() {
		if !before[d] {
			added = append(added, d)
		}
	}
	if len(added) > 2 {
		t.Errorf("%d probes added %d details, want at most 2: %q ...", probes, len(added), added[:3])
	}
	events, err := v.AuditEventsCtx(ctx, "officer-kim", audit.Query{Actor: "dr-house"})
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, e := range events {
		if e.Outcome == audit.OutcomeError && strings.HasPrefix(e.Record, "absent-") {
			named[e.Record] = true
			if e.Detail != "not_found" {
				t.Fatalf("probe of %s has detail %q, want not_found", e.Record, e.Detail)
			}
		}
	}
	if len(named) != probes {
		t.Errorf("%d probe events name their ID, want %d", len(named), probes)
	}
}
