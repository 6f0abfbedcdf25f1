package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/merkle"
	"medvault/internal/vcrypto"
)

// openDurable opens a file-backed vault in dir with standard staff.
func openDurable(t *testing.T, dir string, master vcrypto.Key, vc *clock.Virtual) *Cluster {
	t.Helper()
	v, err := Open(Config{Name: "durable", Master: master, Clock: vc, Dir: dir})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	a := v.Authz()
	for _, r := range authz.StandardRoles() {
		a.DefineRole(r)
	}
	if err := a.AddPrincipal("dr-house", "physician"); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPrincipal("arch-lee", "archivist"); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDurableReopenAfterClose(t *testing.T) {
	dir := t.TempDir()
	master, _ := vcrypto.NewKey()
	vc := clock.NewVirtual(testEpoch)

	v := openDurable(t, dir, master, vc)
	g := ehr.NewGenerator(30, testEpoch)
	var ids []string
	var bodies []string
	for i := 0; i < 12; i++ {
		r := g.Next()
		if r.Category == ehr.CategoryBilling || r.Category == ehr.CategoryOccupational {
			continue
		}
		if _, err := v.PutCtx(context.Background(), "dr-house", r); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
		bodies = append(bodies, r.Body)
	}
	headBefore := v.Shard(0).Head()
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := openDurable(t, dir, master, vc)
	defer re.Close()
	if re.Len() != len(ids) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(ids))
	}
	for i, id := range ids {
		rec, _, err := re.GetCtx(context.Background(), "dr-house", id)
		if err != nil {
			t.Fatalf("Get(%s) after reopen: %v", id, err)
		}
		if rec.Body != bodies[i] {
			t.Errorf("content of %s changed across reopen", id)
		}
	}
	// The commitment log must be the SAME log, extending the old head.
	if _, err := re.VerifyAll([]merkle.SignedTreeHead{headBefore}, nil); err != nil {
		t.Fatalf("VerifyAll after reopen: %v", err)
	}
	// Search still works (index restored from snapshot).
	hits, err := re.SearchCtx(context.Background(), "dr-house", ehr.CommonCondition())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Error("index lost across reopen")
	}
	// And new writes continue cleanly.
	r := g.Next()
	for r.Category != ehr.CategoryClinical {
		r = g.Next()
	}
	if _, err := re.PutCtx(context.Background(), "dr-house", r); err != nil {
		t.Fatalf("Put after reopen: %v", err)
	}
}

func TestDurableCrashRecoveryViaWAL(t *testing.T) {
	dir := t.TempDir()
	master, _ := vcrypto.NewKey()
	vc := clock.NewVirtual(testEpoch)

	v := openDurable(t, dir, master, vc)
	g := ehr.NewGenerator(31, testEpoch)
	var rec ehr.Record
	for rec = g.Next(); rec.Category != ehr.CategoryClinical; rec = g.Next() {
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	corr := g.Correction(rec)
	if _, err := v.CorrectCtx(context.Background(), "dr-house", corr); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no Close, no snapshot. Recovery must come from the
	// WAL alone.
	v.Shard(0).blocks.Sync()

	re := openDurable(t, dir, master, vc)
	defer re.Close()
	got, ver, err := re.GetCtx(context.Background(), "dr-house", rec.ID)
	if err != nil {
		t.Fatalf("Get after crash: %v", err)
	}
	if ver.Number != 2 || !strings.Contains(got.Body, "AMENDMENT") {
		t.Errorf("correction lost in crash recovery: v%d", ver.Number)
	}
	hist, err := re.HistoryCtx(context.Background(), "dr-house", rec.ID)
	if err != nil || len(hist) != 2 {
		t.Fatalf("history after crash: %d, %v", len(hist), err)
	}
	if _, err := re.VerifyAll(nil, nil); err != nil {
		t.Errorf("VerifyAll after crash recovery: %v", err)
	}
}

func TestDurableShredSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	master, _ := vcrypto.NewKey()
	vc := clock.NewVirtual(testEpoch)

	v := openDurable(t, dir, master, vc)
	rec := ehr.NewGenerator(32, testEpoch).Next()
	rec.CreatedAt = testEpoch
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	vc.Advance(40 * 365 * 24 * time.Hour)
	if err := v.ShredCtx(context.Background(), "arch-lee", rec.ID); err != nil {
		t.Fatalf("Shred: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir, master, vc)
	defer re.Close()
	if _, _, err := re.GetCtx(context.Background(), "dr-house", rec.ID); !errors.Is(err, ErrShredded) {
		t.Errorf("shred lost across reopen: %v", err)
	}
	if _, err := re.PutCtx(context.Background(), "dr-house", rec); !errors.Is(err, ErrShredded) {
		t.Errorf("shredded ID reusable after reopen: %v", err)
	}
	if _, err := re.VerifyAll(nil, nil); err != nil {
		t.Errorf("VerifyAll after reopen with shredded record: %v", err)
	}
}

func TestDurableCrashAfterShredWALReplay(t *testing.T) {
	dir := t.TempDir()
	master, _ := vcrypto.NewKey()
	vc := clock.NewVirtual(testEpoch)
	v := openDurable(t, dir, master, vc)
	rec := ehr.NewGenerator(33, testEpoch).Next()
	rec.CreatedAt = testEpoch
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	vc.Advance(40 * 365 * 24 * time.Hour)
	if err := v.ShredCtx(context.Background(), "arch-lee", rec.ID); err != nil {
		t.Fatal(err)
	}
	// Crash without Close: the shred lives only in the WAL.
	re := openDurable(t, dir, master, vc)
	defer re.Close()
	if _, _, err := re.GetCtx(context.Background(), "dr-house", rec.ID); !errors.Is(err, ErrShredded) {
		t.Errorf("WAL shred replay failed: %v", err)
	}
}

func TestDurableLegalHoldsSurvive(t *testing.T) {
	dir := t.TempDir()
	master, vc := mustKey(t), mustClock()
	v := openDurable(t, dir, master, vc)
	rec := ehr.NewGenerator(36, testEpoch).Next()
	rec.CreatedAt = testEpoch
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	vc.Advance(40 * 365 * 24 * time.Hour)
	if err := v.PlaceHoldCtx(context.Background(), "arch-lee", rec.ID, "grand jury subpoena 26-118"); err != nil {
		t.Fatalf("PlaceHold: %v", err)
	}
	placedAt := v.Retention().Holds()[0].Placed

	// Crash (no Close): the hold lives only in the WAL.
	re := openDurable(t, dir, master, vc)
	holds := re.Retention().Holds()
	if len(holds) != 1 || holds[0].Reason != "grand jury subpoena 26-118" {
		t.Fatalf("hold lost in WAL replay: %v", holds)
	}
	if !holds[0].Placed.Equal(placedAt) {
		t.Error("hold timestamp drifted across replay")
	}
	if err := re.ShredCtx(context.Background(), "arch-lee", rec.ID); err == nil {
		t.Fatal("shred under replayed hold accepted")
	}
	// Clean close → snapshot path.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := openDurable(t, dir, master, vc)
	defer re2.Close()
	if len(re2.Retention().Holds()) != 1 {
		t.Fatal("hold lost in snapshot restore")
	}
	// Release is durable too.
	if err := re2.ReleaseHoldCtx(context.Background(), "arch-lee", rec.ID); err != nil {
		t.Fatal(err)
	}
	if err := re2.Close(); err != nil {
		t.Fatal(err)
	}
	re3 := openDurable(t, dir, master, vc)
	defer re3.Close()
	if len(re3.Retention().Holds()) != 0 {
		t.Fatal("released hold resurrected")
	}
	if err := re3.ShredCtx(context.Background(), "arch-lee", rec.ID); err != nil {
		t.Fatalf("shred after durable release: %v", err)
	}
	// Unauthorized hold management is refused.
	if err := re3.PlaceHoldCtx(context.Background(), "dr-house", rec.ID, "x"); !errors.Is(err, ErrShredded) && !errors.Is(err, ErrDenied) {
		t.Errorf("hold by physician on shredded record: %v", err)
	}
}

func TestDurableWrongMasterFailsClosed(t *testing.T) {
	dir := t.TempDir()
	master, _ := vcrypto.NewKey()
	vc := clock.NewVirtual(testEpoch)
	v := openDurable(t, dir, master, vc)
	rec := clinicalRecord(t, 34)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	wrong, _ := vcrypto.NewKey()
	if _, err := Open(Config{Name: "durable", Master: wrong, Clock: vc, Dir: dir}); err == nil {
		t.Error("vault opened with the wrong master key")
	}
}

func TestDurableSnapshotIsAtomic(t *testing.T) {
	dir := t.TempDir()
	master, _ := vcrypto.NewKey()
	vc := clock.NewVirtual(testEpoch)
	v := openDurable(t, dir, master, vc)
	rec := clinicalRecord(t, 35)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	// No stray temp file, snapshot present.
	if _, err := os.Stat(filepath.Join(dir, "meta.snap")); err != nil {
		t.Errorf("snapshot missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "meta.snap.tmp")); !os.IsNotExist(err) {
		t.Error("stray snapshot temp file")
	}
}

// TestLiveRecordsGaugeTracksOpenVaults pins medvault_records_live to what
// the process actually holds open: puts and imports add, a shred subtracts,
// Close gives the vault's share back, and a reopen counts the recovered
// records once — not on top of what the first open left behind.
func TestLiveRecordsGaugeTracksOpenVaults(t *testing.T) {
	ctx := context.Background()
	base := metLiveRecords.Value()
	live := func(when string, want float64) {
		t.Helper()
		if got := metLiveRecords.Value() - base; got != want {
			t.Errorf("%s: records_live moved by %v, want %v", when, got, want)
		}
	}

	// A source vault on an in-memory disk provides the bundle to import; closing it
	// must return its own record to the gauge.
	g := ehr.NewGenerator(70, testEpoch)
	nextClinical := func() ehr.Record {
		for {
			if r := g.Next(); r.Category == ehr.CategoryClinical {
				r.CreatedAt = testEpoch
				return r
			}
		}
	}
	src, _ := newVault(t)
	imported := nextClinical()
	if _, err := src.PutCtx(ctx, "dr-house", imported); err != nil {
		t.Fatal(err)
	}
	bundle, err := src.Export("arch-lee", imported.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	live("source vault closed", 0)

	dir := t.TempDir()
	master, _ := vcrypto.NewKey()
	vc := clock.NewVirtual(testEpoch)
	v := openDurable(t, dir, master, vc)
	first := nextClinical()
	for _, rec := range []ehr.Record{first, nextClinical(), nextClinical()} {
		if _, err := v.PutCtx(ctx, "dr-house", rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Import("arch-lee", bundle, "hospital-test"); err != nil {
		t.Fatal(err)
	}
	live("3 puts + 1 import", 4)

	vc.Advance(40 * 365 * 24 * time.Hour)
	if err := v.ShredCtx(ctx, "arch-lee", first.ID); err != nil {
		t.Fatal(err)
	}
	live("after shred", 3)

	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	live("after Close", 0)

	re := openDurable(t, dir, master, vc)
	live("after reopen", 3)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	live("after second Close", 0)
}
