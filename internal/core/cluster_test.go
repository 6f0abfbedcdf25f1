package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"medvault/internal/audit"
	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/faultfs"
	"medvault/internal/vcrypto"
	"medvault/internal/wal"
)

// TestShardOfGolden pins the record→shard mapping. These values are part of
// the durable format: a record is stored on the shard ShardOf names, so any
// change here silently strands every record in an existing multi-shard
// cluster. Changing the hash requires a deliberate format bump with a
// migration path — update these constants only as part of one.
func TestShardOfGolden(t *testing.T) {
	golden := []struct {
		id   string
		n    int
		want int
	}{
		{"", 2, 1}, {"", 4, 1}, {"", 8, 5},
		{"rec-0001", 2, 1}, {"rec-0001", 4, 3}, {"rec-0001", 8, 7},
		{"rec-0002", 2, 0}, {"rec-0002", 4, 2}, {"rec-0002", 8, 2},
		{"rec-0003", 2, 1}, {"rec-0003", 4, 1}, {"rec-0003", 8, 5},
		{"rec-0004", 2, 0}, {"rec-0004", 4, 0}, {"rec-0004", 8, 0},
		{"mrn-784-a", 2, 0}, {"mrn-784-a", 4, 2}, {"mrn-784-a", 8, 6},
		{"smoke-1", 2, 0}, {"smoke-1", 4, 0}, {"smoke-1", 8, 0},
		{"scale-w0-g0-0", 2, 0}, {"scale-w0-g0-0", 4, 0}, {"scale-w0-g0-0", 8, 0},
		{"scale-w3-g1-7", 2, 1}, {"scale-w3-g1-7", 4, 1}, {"scale-w3-g1-7", 8, 1},
		{"patient/9f31", 2, 0}, {"patient/9f31", 4, 0}, {"patient/9f31", 8, 0},
		{"ehr-2026-000042", 2, 0}, {"ehr-2026-000042", 4, 0}, {"ehr-2026-000042", 8, 4},
		{"z", 2, 1}, {"z", 4, 1}, {"z", 8, 5},
	}
	for _, g := range golden {
		if got := ShardOf(g.id, g.n); got != g.want {
			t.Errorf("ShardOf(%q, %d) = %d, want %d (hash change = format break)", g.id, g.n, got, g.want)
		}
	}
	// Degenerate shapes route to shard 0 rather than dividing by zero.
	for _, n := range []int{-3, 0, 1} {
		if got := ShardOf("anything", n); got != 0 {
			t.Errorf("ShardOf(_, %d) = %d, want 0", n, got)
		}
	}
}

// TestShardOfSpread sanity-checks the distribution: across a few thousand
// realistic IDs no shard of 4 should be starved or hot.
func TestShardOfSpread(t *testing.T) {
	counts := make([]int, 4)
	total := 4000
	for i := 0; i < total; i++ {
		counts[ShardOf(fmt.Sprintf("rec-%06d", i), 4)]++
	}
	for s, n := range counts {
		if n < total/8 || n > total/2 {
			t.Errorf("shard %d got %d of %d ids", s, n, total)
		}
	}
}

// auditKey projects an audit event onto its behavioral fields (everything a
// caller or compliance officer observes; chain internals like MACs are
// covered by VerifyAll).
func auditKey(e audit.Event) string {
	return fmt.Sprintf("%d|%s|%s|%s|%d|%s|%s|%s",
		e.Seq, e.Timestamp.Format(time.RFC3339Nano), e.Actor, e.Action, e.Version, e.Record, e.Outcome, e.Detail)
}

// driveWorkload runs the scripted compliance workload against the vault,
// returning the errors observed (for comparison with the golden file).
func driveWorkload(t *testing.T, v *Cluster, vc *clock.Virtual) []string {
	t.Helper()
	var outcomes []string
	note := func(step string, err error) {
		outcomes = append(outcomes, fmt.Sprintf("%s: err=%v", step, err))
	}
	recs := clinicalRecords(t, 100, 7)
	denied := recs[6]
	recs = recs[:6]
	for i, r := range recs {
		_, err := v.PutCtx(context.Background(), "dr-house", r)
		note(fmt.Sprintf("put-%d", i), err)
	}
	vc.Advance(time.Hour)
	_, _, err := v.GetCtx(context.Background(), "nurse-joy", recs[0].ID)
	note("get-nurse", err)
	_, err = v.PutCtx(context.Background(), "nurse-joy", denied)
	note("put-denied", err)
	_, _, err = v.GetCtx(context.Background(), "dr-house", "no-such-record")
	note("get-missing", err)
	fix := recs[1]
	fix.Body = "corrected " + fix.Body
	_, err = v.CorrectCtx(context.Background(), "dr-house", fix)
	note("correct", err)
	err = v.BreakGlassCtx(context.Background(), "clerk-bob", "er consult", 30*time.Minute)
	note("break-glass", err)
	_, _, err = v.GetCtx(context.Background(), "clerk-bob", recs[2].ID)
	note("get-break-glass", err)
	err = v.PlaceHoldCtx(context.Background(), "officer-kim", recs[3].ID, "litigation 44-B")
	note("hold", err)
	err = v.ShredCtx(context.Background(), "arch-lee", recs[3].ID)
	note("shred-held", err)
	err = v.ReleaseHoldCtx(context.Background(), "officer-kim", recs[3].ID)
	note("release", err)
	vc.Advance(time.Hour)
	ids, err := v.SearchCtx(context.Background(), "dr-house", strings.Fields(recs[4].Title)[0])
	note(fmt.Sprintf("search(%d)", len(ids)), err)
	_, err = v.AccountingOfDisclosuresCtx(context.Background(), "officer-kim", recs[0].MRN)
	note("disclosures", err)
	_, err = v.HistoryCtx(context.Background(), "dr-house", recs[1].ID)
	note("history", err)
	return outcomes
}

// TestClusterOneShardEquivalence pins the promise the single-implementation
// refactor rests on: a one-shard vault behaves exactly as the bare,
// pre-cluster Vault did. The bare side no longer exists to run, so its half
// is a literal: testdata/one_shard_workload.golden was written by the last
// commit that still had a standalone Vault (PR 13), running this same
// scripted workload with this master seed and clock. Every step's error,
// the VerifyAll report, the tree-head size, and the audit journal (every
// field a caller observes) must still match it line for line — at
// Config.Shards 1 and at 0. One line has moved since: the failed lookup's
// audit detail is its outcome label, not_found, where that vault wrote the
// error's text, which repeated the probed ID the event's Record names.
func TestClusterOneShardEquivalence(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "one_shard_workload.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var seed [32]byte
	copy(seed[:], "medvault-fixture-master-seed-32b")
	master, err := vcrypto.KeyFromBytes(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 0} {
		vc := clock.NewVirtual(testEpoch)
		v, err := Open(Config{Name: "equiv", Master: master, Clock: vc, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		registerStaff(t, v)

		var got strings.Builder
		for _, o := range driveWorkload(t, v, vc) {
			fmt.Fprintf(&got, "outcome %s\n", o)
		}
		rep, err := v.VerifyAll(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "report %+v\n", rep)
		heads := v.Heads()
		if len(heads) != 1 {
			t.Fatalf("Shards=%d: %d tree heads, want 1", shards, len(heads))
		}
		fmt.Fprintf(&got, "head-size %d\n", heads[0].Size)
		evs, err := v.AuditEventsCtx(context.Background(), "officer-kim", audit.Query{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			fmt.Fprintf(&got, "audit %s\n", auditKey(e))
		}
		if got.String() != string(golden) {
			t.Errorf("Shards=%d diverges from the pre-cluster vault:\n%s", shards, lineDiff(string(golden), got.String()))
		}
	}
}

// lineDiff reports the first line at which two texts differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "identical"
}

// parentFixture is what testdata/parent-single-vault holds: a vault
// directory written through the real filesystem by the last commit that had
// a standalone single-vault constructor (PR 13's core.Open → *Vault), copied
// while the second of two sessions was still open — so it carries a
// metadata snapshot from the first clean Close plus an uncheckpointed WAL
// tail, and reopening it exercises both snapshot load and WAL replay.
var parentFixture = struct {
	bodies   map[string][]string // live record → body per version
	shredded string
	held     string
	leaves   uint64
	now      time.Time // the writer's virtual clock when the copy was taken
}{
	bodies: map[string][]string{
		"fx-a": {"fixture body fx-a v1", "fixture body fx-a v2"},
		"fx-c": {"fixture body fx-c v1"},
		"fx-d": {"fixture body fx-d v1"},
	},
	shredded: "fx-b",
	held:     "fx-c",
	leaves:   6,
	now:      time.Date(2065, 12, 26, 9, 3, 0, 0, time.UTC),
}

// copyTree copies the directory src into dst through the real filesystem.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o600)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParentSingleVaultDirectoryReopens: a directory the pre-refactor
// single-vault code wrote must open, read back, and verify clean under the
// one remaining constructor, at Shards 0 (adopt) and 1 — and must refuse to
// be resharded in place.
func TestParentSingleVaultDirectoryReopens(t *testing.T) {
	var seed [32]byte
	copy(seed[:], "medvault-fixture-master-seed-32b")
	master, err := vcrypto.KeyFromBytes(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	fx := parentFixture
	for _, shards := range []int{0, 1} {
		dir := t.TempDir()
		copyTree(t, filepath.Join("testdata", "parent-single-vault"), dir)
		cfg := Config{Name: "fixture", Master: master, Clock: clock.NewVirtual(fx.now), Dir: dir, Shards: shards}
		v, err := Open(cfg)
		if err != nil {
			t.Fatalf("Shards=%d: opening the parent commit's directory: %v", shards, err)
		}
		registerStaff(t, v)
		if h := v.Health(); !h.LastRecovery.SnapshotLoaded || h.LastRecovery.WALEntries == 0 {
			t.Errorf("Shards=%d: fixture should exercise snapshot load and WAL replay, recovery = %+v", shards, h.LastRecovery)
		}
		for id, bodies := range fx.bodies {
			for i, want := range bodies {
				rec, _, err := v.GetVersionCtx(context.Background(), "dr-house", id, uint64(i+1))
				if err != nil || rec.Body != want {
					t.Errorf("Shards=%d: %s v%d = %q, %v; want %q", shards, id, i+1, rec.Body, err, want)
				}
			}
		}
		if _, _, err := v.GetCtx(context.Background(), "dr-house", fx.shredded); !errors.Is(err, ErrShredded) {
			t.Errorf("Shards=%d: shredded %s reads as %v", shards, fx.shredded, err)
		}
		if holds := v.Retention().Holds(); len(holds) != 1 || holds[0].Record != fx.held {
			t.Errorf("Shards=%d: holds = %+v, want one on %s", shards, holds, fx.held)
		}
		rep, err := v.VerifyAll(nil, nil)
		if err != nil {
			t.Fatalf("Shards=%d: VerifyAll on the parent commit's directory: %v", shards, err)
		}
		if rep.RecordsChecked != 4 || uint64(rep.VersionsChecked) != fx.leaves || v.Heads()[0].Size != fx.leaves {
			t.Errorf("Shards=%d: report %+v, head size %d; want 4 records, %d versions", shards, rep, v.Heads()[0].Size, fx.leaves)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, clusterManifest)); err == nil {
			t.Errorf("Shards=%d: reopening a single-vault directory wrote a manifest", shards)
		}
		cfg.Shards = 4
		if _, err := Open(cfg); err == nil {
			t.Errorf("sharding over the parent commit's single-vault layout accepted")
		}
	}
}

// TestParentDirectoryMixedWALLayouts: the parent fixture's meta.wal holds
// legacy 'V' entries; a put and corrections appended to it are 'p' entries,
// carrying their ciphertext, after them in the same file. A crash replays
// both layouts over the fixture's v3 snapshot, and a Close then folds
// everything into a v4 snapshot, which reopens to the same versions.
func TestParentDirectoryMixedWALLayouts(t *testing.T) {
	var seed [32]byte
	copy(seed[:], "medvault-fixture-master-seed-32b")
	master, err := vcrypto.KeyFromBytes(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	fx := parentFixture
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent-single-vault"), dir)
	cfg := Config{Name: "fixture", Master: master, Clock: clock.NewVirtual(fx.now), Dir: dir, Shards: 1}
	open := func(what string) *Cluster {
		t.Helper()
		v, err := Open(cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		registerStaff(t, v)
		return v
	}
	bodies := map[string][]string{}
	for id, b := range fx.bodies {
		bodies[id] = append([]string(nil), b...)
	}
	check := func(what string, v *Cluster) {
		t.Helper()
		for id, want := range bodies {
			for i := range want {
				rec, _, err := v.GetVersionCtx(context.Background(), "dr-house", id, uint64(i+1))
				if err != nil || rec.Body != want[i] {
					t.Errorf("%s: %s v%d = %q, %v; want %q", what, id, i+1, rec.Body, err, want[i])
				}
			}
			if _, ver, err := v.GetCtx(context.Background(), "dr-house", id); err != nil || ver.Number != uint64(len(want)) {
				t.Errorf("%s: %s latest = v%d, %v; want v%d", what, id, ver.Number, err, len(want))
			}
		}
		if _, err := v.VerifyAll(nil, nil); err != nil {
			t.Errorf("%s: VerifyAll: %v", what, err)
		}
	}
	correct := func(v *Cluster, id string) {
		t.Helper()
		rec, _, err := v.GetCtx(context.Background(), "dr-house", id)
		if err != nil {
			t.Fatal(err)
		}
		rec.Body = fmt.Sprintf("%s, corrected as v%d", id, len(bodies[id])+1)
		if _, err := v.CorrectCtx(context.Background(), "dr-house", rec); err != nil {
			t.Fatalf("correcting %s: %v", id, err)
		}
		bodies[id] = append(bodies[id], rec.Body)
	}

	v := open("opening the parent commit's directory")
	fresh := clinicalRecord(t, 40)
	if _, err := v.PutCtx(context.Background(), "dr-house", fresh); err != nil {
		t.Fatal(err)
	}
	bodies[fresh.ID] = []string{fresh.Body}
	correct(v, fresh.ID)
	correct(v, "fx-a")
	correct(v, "fx-d")
	// Crash: no Close, so no snapshot; the fixture's v3 snapshot and the
	// whole mixed log are what recovery has.
	v.Shard(0).blocks.Sync()
	kinds := map[byte]int{}
	if _, _, err := wal.Read(faultfs.OS{}, filepath.Join(dir, "meta.wal"), func(e wal.Entry) error {
		kinds[e.Data[0]]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if kinds['V'] == 0 || kinds['P'] != 1 || kinds['p'] != 3 {
		t.Fatalf("meta.wal entry kinds %v, want legacy 'V' entries, one 'P' create and 3 'p' corrections", kinds)
	}
	re := open("crash reopen")
	check("crash reopen", re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "meta.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) < 6 || snap[4] != 0 || snap[5] != snapVersion {
		t.Fatalf("Close wrote meta.snap version %x, want %d", snap[4:6], snapVersion)
	}
	re = open("reopen after Close")
	defer re.Close()
	if h := re.Health(); !h.LastRecovery.SnapshotLoaded || h.LastRecovery.WALEntries != 0 {
		t.Errorf("reopen after Close should load the snapshot alone, recovery = %+v", h.LastRecovery)
	}
	check("reopen after Close", re)
}

// TestParentV7TailContinuesInV8: testdata/parent-v7-tail is the image a
// kill -9 of the parent binary left after it opened
// testdata/parent-single-vault, read fx-a, fx-c, fx-d and fx-a again, put
// and corrected mrn-000000/enc-0 and refused a clerk's read of fx-a, its
// clock stepping 1.5 s an op: every audit event since that open is in
// meta.wal, the reads and the refusal as v7 entries, the create and the
// correction folded. This binary replays the v7 tail and continues the chain
// in v8 entries after it; an audit checkpoint signed before its first v8
// event verifies after it, and Close flushes the mixed chain to audit/,
// which reopens, verifies and answers fx-a's audit query with every read.
func TestParentV7TailContinuesInV8(t *testing.T) {
	var seed [32]byte
	copy(seed[:], "medvault-fixture-master-seed-32b")
	master, err := vcrypto.KeyFromBytes(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent-v7-tail"), dir)
	later := parentFixture.now.Add(time.Minute)
	cfg := Config{Name: "fixture", Master: master, Clock: clock.NewVirtual(later), Dir: dir, Shards: 1}
	standalone := func(want7, want8 int) {
		t.Helper()
		kinds := map[byte]int{}
		if _, _, err := wal.Read(faultfs.OS{}, filepath.Join(dir, "meta.wal"), func(e wal.Entry) error {
			if audit.IsStandalone(e.Data[0]) {
				kinds[e.Data[0]]++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if kinds[7] != want7 || kinds[8] != want8 || len(kinds) > 2 {
			t.Fatalf("meta.wal holds standalone audit entries of kinds %v, want %d of 7 and %d of 8", kinds, want7, want8)
		}
	}
	standalone(5, 0)
	v, err := Open(cfg)
	if err != nil {
		t.Fatalf("replaying the parent's v7 tail: %v", err)
	}
	registerStaff(t, v)
	before := v.Shard(0).AuditCheckpoint()
	ctx := context.Background()
	for _, id := range []string{"fx-a", "fx-d"} {
		if _, _, err := v.GetCtx(ctx, "dr-house", id); err != nil {
			t.Fatal(err)
		}
	}
	standalone(5, 2)
	if _, err := v.VerifyAll(nil, []audit.Checkpoint{before}); err != nil {
		t.Fatalf("VerifyAll over the mixed tail against a checkpoint from before it: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	store, err := blockstore.OpenFileFS(faultfs.OS{}, filepath.Join(dir, "audit"), 0)
	if err != nil {
		t.Fatal(err)
	}
	layouts := map[byte]int{}
	if err := store.Scan(func(_ blockstore.Ref, p []byte) error {
		layouts[p[0]]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	store.Close()
	if layouts[7] != 5 || layouts[8] != 2+3 {
		t.Errorf("audit/ after Close holds events of layouts %v, want the parent's 5 in v7, and its 2 folds and this binary's reads and verification in v8", layouts)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopening the flushed mixed chain: %v", err)
	}
	defer re.Close()
	registerStaff(t, re)
	if _, err := re.VerifyAll(nil, []audit.Checkpoint{before}); err != nil {
		t.Fatalf("VerifyAll after Close: %v", err)
	}
	events, err := re.AuditEventsCtx(ctx, "officer-kim", audit.Query{Record: "fx-a"})
	if err != nil {
		t.Fatal(err)
	}
	var reads []string
	for _, e := range events {
		if e.Action == audit.ActionRead && !e.Timestamp.Before(parentFixture.now) {
			reads = append(reads, fmt.Sprintf("%s %s %s", e.Actor, e.Outcome, e.Timestamp.Sub(parentFixture.now)))
		}
	}
	if want := []string{"dr-house allowed 0s", "dr-house allowed 4.5s", "clerk-bob denied 9s", "dr-house allowed 1m0s"}; !reflect.DeepEqual(reads, want) {
		t.Errorf("fx-a's reads since the parent's open: %q, want %q", reads, want)
	}
}

// TestOneShardClassicLayout: a fresh durable vault at Shards 1 — and at 0 —
// holds exactly the classic pre-cluster layout: the shard's files directly
// under Dir, no cluster.conf, no shard-0/.
func TestOneShardClassicLayout(t *testing.T) {
	for _, shards := range []int{1, 0} {
		dir := t.TempDir()
		v, err := Open(Config{Name: "layout", Master: mustKey(t), Clock: mustClock(), Dir: dir, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		registerStaff(t, v)
		if _, err := v.PutCtx(context.Background(), "dr-house", clinicalRecord(t, 1)); err != nil {
			t.Fatal(err)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range ents {
			got = append(got, e.Name())
		}
		want := []string{"audit", "blocks", "flight", "meta.snap", "meta.wal", "prov"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Shards=%d: directory holds %v, want the classic layout %v", shards, got, want)
		}
	}
}

// newCluster builds an n-shard cluster on an in-memory disk with staff registered.
func newCluster(t *testing.T, n int) (*Cluster, *clock.Virtual) {
	t.Helper()
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	vc := clock.NewVirtual(testEpoch)
	c, err := Open(Config{Name: "cluster-test", Master: master, Clock: vc, Shards: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	registerStaff(t, c)
	return c, vc
}

// TestClusterRoutingAndMerge exercises the basic cluster contract: records
// land on their hashed shard, cluster-wide observables are merged sorted
// unions, and cross-shard search/disclosures see everything.
func TestClusterRoutingAndMerge(t *testing.T) {
	c, _ := newCluster(t, 4)
	var ids []string
	perShard := make([]int, 4)
	for i, rec := range clinicalRecords(t, 300, 12) {
		if _, err := c.PutCtx(context.Background(), "dr-house", rec); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		ids = append(ids, rec.ID)
		perShard[ShardOf(rec.ID, 4)]++
	}
	if c.Len() != 12 {
		t.Errorf("Len = %d", c.Len())
	}
	for s := 0; s < 4; s++ {
		if got := c.Shard(s).Len(); got != perShard[s] {
			t.Errorf("shard %d holds %d records, want %d", s, got, perShard[s])
		}
		if got := c.Shard(s).Head().Size; got != uint64(perShard[s]) {
			t.Errorf("shard %d head size %d, want %d", s, got, perShard[s])
		}
	}
	sort.Strings(ids)
	if got := c.RecordIDs(); !reflect.DeepEqual(got, ids) {
		t.Errorf("RecordIDs = %v, want %v", got, ids)
	}
	for _, id := range ids {
		if _, _, err := c.GetCtx(context.Background(), "dr-house", id); err != nil {
			t.Errorf("get %s: %v", id, err)
		}
	}
	rep, err := c.VerifyAll(nil, nil)
	if err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
	if rep.RecordsChecked != 12 || rep.VersionsChecked != 12 {
		t.Errorf("report = %+v", rep)
	}
	if len(c.Heads()) != 4 {
		t.Errorf("Heads = %d", len(c.Heads()))
	}
	// Per-shard remembered heads verify against their own shard.
	heads := c.Heads()
	for s := 0; s < 4; s++ {
		if _, err := c.Shard(s).VerifyAll(heads[s:s+1], nil); err != nil {
			t.Errorf("shard %d VerifyAll with remembered head: %v", s, err)
		}
	}
	// Cluster-level VerifyAll refuses ambiguous remembered artifacts.
	if _, err := c.VerifyAll(heads[:1], nil); err == nil {
		t.Error("cluster VerifyAll accepted a remembered head it cannot attribute")
	}
}

// TestClusterFanOutErrorAggregation wedges one shard (by closing it behind
// the cluster's back) and checks that fan-out operations report that shard's
// failure by index without masking the healthy shards.
func TestClusterFanOutErrorAggregation(t *testing.T) {
	c, _ := newCluster(t, 2)
	for _, rec := range clinicalRecords(t, 400, 6) {
		if _, err := c.PutCtx(context.Background(), "dr-house", rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Shard(1).Close(); err != nil {
		t.Fatal(err)
	}

	_, err := c.VerifyAll(nil, nil)
	if err == nil {
		t.Fatal("VerifyAll succeeded with a dead shard")
	}
	if !strings.Contains(err.Error(), "shard 1:") {
		t.Errorf("error does not name shard 1: %v", err)
	}
	if strings.Contains(err.Error(), "shard 0:") {
		t.Errorf("healthy shard 0 reported as failed: %v", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Errorf("wrapped sentinel lost: %v", err)
	}
	// The healthy shard still verifies on its own.
	if _, err := c.Shard(0).VerifyAll(nil, nil); err != nil {
		t.Errorf("healthy shard broken by sibling failure: %v", err)
	}

	h := c.Health()
	if h.Open {
		t.Error("cluster reports Open with a closed shard")
	}
	per := h.Shards
	if !per[0].Open || per[1].Open {
		t.Errorf("per-shard health wrong: %+v", per)
	}

	// Closing the cluster reports only the already-closed shard's... nothing:
	// Vault.Close on a closed vault is a no-op nil, so Close succeeds.
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestOpenLayout covers the durable layout rules: the manifest pins
// the shard count, shards=0 adopts it, mismatches and sharding over a
// single-vault directory are refused, and one shard stays manifest-free.
func TestOpenLayout(t *testing.T) {
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	vc := clock.NewVirtual(testEpoch)
	dir := t.TempDir()

	c, err := Open(Config{Name: "layout", Master: master, Clock: vc, Dir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	registerStaff(t, c)
	for _, rec := range clinicalRecords(t, 500, 5) {
		if _, err := c.PutCtx(context.Background(), "dr-house", rec); err != nil {
			t.Fatal(err)
		}
	}
	want := c.RecordIDs()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Config{Name: "layout", Master: master, Clock: vc, Dir: dir, Shards: 2}); err == nil {
		t.Fatal("shard-count change accepted on reopen")
	}

	// shards=0 adopts the manifest.
	c2, err := Open(Config{Name: "layout", Master: master, Clock: vc, Dir: dir, Shards: 0})
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumShards() != 3 {
		t.Errorf("adopted %d shards, want 3", c2.NumShards())
	}
	if got := c2.RecordIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("records after reopen = %v, want %v", got, want)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// A single-vault directory cannot be sharded in place.
	soloDir := t.TempDir()
	solo, err := Open(Config{Name: "solo", Master: master, Clock: vc, Dir: soloDir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Name: "solo", Master: master, Clock: vc, Dir: soloDir, Shards: 4}); err == nil {
		t.Fatal("sharding over a single-vault layout accepted")
	}
	// But it reopens fine as a one-shard cluster, manifest-free.
	c3, err := Open(Config{Name: "solo", Master: master, Clock: vc, Dir: soloDir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c3.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(soloDir, clusterManifest)); err == nil {
		t.Fatal("one-shard cluster wrote a manifest into a single-vault layout")
	}

	if _, err := Open(Config{Master: master, Clock: vc, Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := Open(Config{Master: master, Clock: vc, Shards: MaxShards + 1}); err == nil {
		t.Error("oversized shard count accepted")
	}
}
