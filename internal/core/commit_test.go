package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/merkle"
)

// oneShot is an injector that fails the first operation hit matches after
// arm with ErrNoSpace — a transient fault, not a crash. A short one lets half
// of a write's payload land first.
type oneShot struct {
	armed atomic.Bool
	hit   func(faultfs.Op) bool
	short bool
}

func (o *oneShot) inject(op faultfs.Op) *faultfs.Fault {
	if o.hit(op) && o.armed.CompareAndSwap(true, false) {
		if o.short {
			return &faultfs.Fault{Err: faultfs.ErrNoSpace, ApplyBytes: op.Bytes / 2}
		}
		return &faultfs.Fault{Err: faultfs.ErrNoSpace}
	}
	return nil
}

func underWAL(kind faultfs.OpKind) func(faultfs.Op) bool {
	return func(op faultfs.Op) bool { return op.Kind == kind && strings.HasSuffix(op.Path, "/meta.wal") }
}

// importBundle builds an n-version bundle as Export would hand it over.
func importBundle(id string, n int, at time.Time) ExportBundle {
	b := ExportBundle{ID: id, Category: ehr.CategoryClinical}
	for i := 1; i <= n; i++ {
		rec := tortureRecord(id, i, at)
		b.Versions = append(b.Versions, ExportedVersion{
			Record: rec, Version: Version{Number: uint64(i), Author: "dr-house"}, PlainHash: plainHash(rec),
		})
	}
	return b
}

// noOrphanKeys asserts the standing invariant from the key store's side:
// every live wrapped DEK belongs to a record the registry knows.
func noOrphanKeys(t *testing.T, v *Cluster) {
	t.Helper()
	for i := 0; i < v.NumShards(); i++ {
		s := v.Shard(i)
		for _, id := range s.keys.IDs() {
			if _, ok := s.lookup(id); !ok {
				t.Errorf("shard %d holds a data key for unregistered record %s", i, id)
			}
		}
	}
}

// TestFailedWriteLeavesNoKey: a Put or Import whose first version does not
// become durable must leave nothing behind — the same call succeeds after a
// restart. The version's one write is its meta.wal entry, so ENOSPC, a short
// write or a failed fsync there wedges the WAL: the op fails as wedged, and
// the power cut that follows keeps only what was synced. Before the one
// mutation path the DEK was registered ahead of the ciphertext append and
// never taken back, so one transient ENOSPC poisoned the record ID for good
// ("key already exists"), and Close persisted the orphan key in meta.snap.
func TestFailedWriteLeavesNoKey(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		hit   func(faultfs.Op) bool
		short bool
	}{
		{"ENOSPC on the entry write", underWAL(faultfs.OpWrite), false},
		{"short write of the entry", underWAL(faultfs.OpWrite), true},
		{"entry fsync fails", underWAL(faultfs.OpSync), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, op := range []string{"put", "import"} {
				mem := faultfs.NewMem()
				fault := &oneShot{hit: tc.hit, short: tc.short}
				v, vc, err := openTorture(faultfs.NewFaulty(mem, fault.inject), 1)
				if err != nil {
					t.Fatal(err)
				}
				attempt := func(v *Cluster) error {
					if op == "put" {
						_, err := v.PutCtx(ctx, "dr-house", tortureRecord("rec", 1, vc.Now()))
						return err
					}
					return v.Import("arch-lee", importBundle("rec", 3, vc.Now()), "elsewhere")
				}
				fault.armed.Store(true)
				if err := attempt(v); !errors.Is(err, ErrWedged) || !errors.Is(err, faultfs.ErrNoSpace) {
					t.Fatalf("%s under fault: %v, want ErrWedged from ErrNoSpace", op, err)
				}
				noOrphanKeys(t, v)
				if !v.Health().WALWedged {
					t.Fatalf("%s: a failed entry write left the WAL serving", op)
				}
				_ = v.Close() // the wedged WAL refuses the checkpoint; the power cut follows

				re, _, err := openTorture(mem.CrashImage(faultfs.KeepNone), 1)
				if err != nil {
					t.Fatalf("%s: reopen: %v", op, err)
				}
				noOrphanKeys(t, re)
				if err := attempt(re); err != nil {
					t.Fatalf("%s after a failed one and a restart: %v", op, err)
				}
				if n, err := re.VersionCount("rec"); err != nil || (op == "import" && n != 3) {
					t.Errorf("retried %s has %d versions (%v)", op, n, err)
				}
				if _, err := re.VerifyAll(nil, nil); err != nil {
					t.Fatalf("%s: VerifyAll after restart: %v", op, err)
				}
				re.Close()
			}
		})
	}
}

// TestSignedHeadCoversOnlyDurableVersions: a tree head signed while a put's
// meta.wal fsync is in flight vouches only for durable versions, so the vault
// a power cut leaves still extends it. When the leaf joined the Merkle log
// ahead of the fsync, the head covered 2 versions where 1 was durable, and
// after the cut and one more put VerifyAll found equal sizes with different
// roots.
func TestSignedHeadCoversOnlyDurableVersions(t *testing.T) {
	ctx := context.Background()
	mem := faultfs.NewMem()
	var hold atomic.Bool
	inSync, release := make(chan struct{}), make(chan struct{})
	v, vc, err := openTorture(faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		if underWAL(faultfs.OpSync)(op) && hold.CompareAndSwap(true, false) {
			close(inSync)
			<-release // the power cut lands while the fsync is held
			return &faultfs.Fault{Crash: true}
		}
		return nil
	}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.PutCtx(ctx, "dr-house", tortureRecord("durable", 1, vc.Now())); err != nil {
		t.Fatal(err)
	}
	hold.Store(true)
	put := make(chan error, 1)
	go func() {
		_, err := v.PutCtx(ctx, "dr-house", tortureRecord("lost", 1, vc.Now()))
		put <- err
	}()
	<-inSync
	head := v.Heads()[0]
	img := mem.CrashImage(faultfs.KeepNone)
	close(release)
	if err := <-put; err == nil {
		t.Fatal("a put whose fsync the power cut took succeeded")
	}
	_ = v.Close()

	re, vc, err := openTorture(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.PutCtx(ctx, "dr-house", tortureRecord("after", 1, vc.Now())); err != nil {
		t.Fatal(err)
	}
	rep, err := re.VerifyAll([]merkle.SignedTreeHead{head}, nil)
	if err != nil {
		t.Fatalf("head of size %d signed during the fsync: %v", head.Size, err)
	}
	if head.Size != 1 || rep.HeadsChecked != 1 {
		t.Errorf("head signed during the fsync covers %d versions (%d heads checked), want 1", head.Size, rep.HeadsChecked)
	}
}

// TestVerifyAllFlagsOrphanKey pins the standing invariant: a live wrapped
// DEK for a record the registry does not know fails the integrity sweep.
func TestVerifyAllFlagsOrphanKey(t *testing.T) {
	v, _ := newVault(t)
	if _, err := v.Shard(0).keys.Create("ghost"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyAll(nil, nil); !errors.Is(err, ErrTampered) || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("VerifyAll with an orphan key: %v", err)
	}
}

// TestImportFailingMidwayKeepsCommittedPrefix: every version is its own
// commit, so an import that fails at version 2 leaves version 1 — live and,
// identically, after a crash — never a key or a Merkle leaf without a record.
// The import's audit event is meta.wal's first write and its versions the
// next two. The failed write wedges the WAL, where every audit event goes,
// so the live shard answers no audited search: its state is compared
// without the searches, which the recovered vault answers.
func TestImportFailingMidwayKeepsCommittedPrefix(t *testing.T) {
	mem := faultfs.NewMem()
	writes := 0
	fsys := faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		if underWAL(faultfs.OpWrite)(op) {
			if writes++; writes == 3 {
				return &faultfs.Fault{Err: faultfs.ErrNoSpace}
			}
		}
		return nil
	})
	v, vc, err := openTorture(fsys, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.Import("arch-lee", importBundle("imp", 3, vc.Now()), "elsewhere"); !errors.Is(err, faultfs.ErrNoSpace) {
		t.Fatalf("Import: %v", err)
	}
	if _, err := v.SearchCtx(context.Background(), "dr-house", "torture"); !errors.Is(err, ErrWedged) {
		t.Fatalf("search on a shard whose WAL wedged: %v, want ErrWedged", err)
	}
	live := captureStateOf(t, v, false)
	if n, err := v.VersionCount("imp"); err != nil || n != 1 {
		t.Fatalf("committed prefix = %d versions (%v), want 1", n, err)
	}
	re, _, err := openTorture(mem.CrashImage(faultfs.KeepAll), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ids := captureState(t, re).Searches["torture"]; !reflect.DeepEqual(ids, []string{"imp"}) {
		t.Errorf("recovered search for the imported version: %v, want [imp]", ids)
	}
	if got := captureStateOf(t, re, false); !reflect.DeepEqual(got, live) {
		t.Errorf("recovered state differs from live:\n live %+v\n got  %+v", live, got)
	}
	if _, err := re.VerifyAll(nil, nil); err != nil {
		t.Fatal(err)
	}
}

// --- replay == live ----------------------------------------------------------

type versionState struct {
	Number, LeafIndex uint64
	Author            string
	TimestampNano     int64
	Segment           uint32
	Offset            uint64
	CtHash            [32]byte
}

type shardState struct {
	Versions map[string][]versionState
	Shredded []string
	KeyIDs   []string
	HeadSize uint64
	HeadRoot [32]byte
}

type vaultState struct {
	Shards   []shardState
	Holds    []string // "id|reason|placedNano"
	Searches map[string][]string
}

var replayKeywords = []string{"hypertension", "asthma", "migraine", "fracture", "torture", "absent"}

// captureState reads everything a shard's log determines.
func captureState(t *testing.T, v *Cluster) vaultState {
	t.Helper()
	return captureStateOf(t, v, true)
}

// captureStateOf is captureState, with the audited searches only if search.
func captureStateOf(t *testing.T, v *Cluster, search bool) vaultState {
	t.Helper()
	s := vaultState{Searches: map[string][]string{}}
	for i := 0; i < v.NumShards(); i++ {
		sh := v.Shard(i)
		ss := shardState{Versions: shardVersions(sh), KeyIDs: sh.keys.IDs()}
		for _, r := range sh.registry() {
			if r.st.shredded.Load() {
				ss.Shredded = append(ss.Shredded, r.id)
			}
		}
		sort.Strings(ss.Shredded)
		head := sh.Head()
		ss.HeadSize, ss.HeadRoot = head.Size, head.Root
		s.Shards = append(s.Shards, ss)
	}
	for _, h := range v.Retention().Holds() {
		s.Holds = append(s.Holds, fmt.Sprintf("%s|%s|%d", h.Record, h.Reason, h.Placed.UnixNano()))
	}
	for _, kw := range replayKeywords {
		if !search {
			break
		}
		ids, err := v.SearchCtx(context.Background(), "dr-house", kw)
		if err != nil {
			t.Fatalf("search %q: %v", kw, err)
		}
		s.Searches[kw] = ids
	}
	return s
}

// shardVersions is every version the shard's registry holds, by record.
func shardVersions(sh *Vault) map[string][]versionState {
	out := map[string][]versionState{}
	for _, r := range sh.registry() {
		for _, ver := range sh.versions(r.st) {
			out[r.id] = append(out[r.id], versionState{
				ver.Number, ver.LeafIndex, ver.Author, ver.Timestamp.UnixNano(), ver.Ref.Segment, ver.Ref.Offset, ver.CtHash,
			})
		}
	}
	return out
}

// replayScript drives a seeded mix of every mutating operation.
type replayScript struct {
	rng      *rand.Rand
	versions map[string]int // live record -> version count
	held     map[string]bool
	next     int
}

func (s *replayScript) pick(from map[string]int, ok func(string) bool) (string, bool) {
	var ids []string
	for id := range from {
		if ok(id) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return "", false
	}
	sort.Strings(ids)
	return ids[s.rng.Intn(len(ids))], true
}

func (s *replayScript) record(id string, version int, vc interface{ Now() time.Time }) ehr.Record {
	// Created long ago, so retention has lapsed and the record may be shredded.
	rec := tortureRecord(id, version, vc.Now().Add(-50*365*24*time.Hour))
	rec.Body = fmt.Sprintf("%s %s review", sentinel(id, version), replayKeywords[s.rng.Intn(4)])
	return rec
}

func (s *replayScript) run(t *testing.T, v *Cluster, vc interface{ Now() time.Time }, steps int) {
	t.Helper()
	ctx := context.Background()
	any := func(string) bool { return true }
	for i := 0; i < steps; i++ {
		var err error
		var what string
		switch k := s.rng.Intn(10); {
		case k < 3 || len(s.versions) < 3:
			id := fmt.Sprintf("rec-%d", s.next)
			s.next++
			what = "put " + id
			_, err = v.PutCtx(ctx, "dr-house", s.record(id, 1, vc))
			s.versions[id] = 1
		case k < 5:
			id, _ := s.pick(s.versions, any)
			what = "correct " + id
			s.versions[id]++
			_, err = v.CorrectCtx(ctx, "dr-house", s.record(id, s.versions[id], vc))
		case k < 6:
			id := fmt.Sprintf("imp-%d", s.next)
			s.next++
			what = "import " + id
			b := ExportBundle{ID: id, Category: ehr.CategoryClinical}
			for n := 1; n <= 1+s.rng.Intn(3); n++ {
				rec := s.record(id, n, vc)
				b.Versions = append(b.Versions, ExportedVersion{Record: rec, Version: Version{Number: uint64(n), Author: "dr-else"}, PlainHash: plainHash(rec)})
			}
			err = v.Import("arch-lee", b, "elsewhere")
			s.versions[id] = len(b.Versions)
		case k < 7:
			id, ok := s.pick(s.versions, func(id string) bool { return !s.held[id] })
			if !ok {
				continue
			}
			what = "hold " + id
			err = v.PlaceHoldCtx(ctx, "arch-lee", id, "matter "+id)
			s.held[id] = true
		case k < 8:
			id, ok := s.pick(s.versions, func(id string) bool { return s.held[id] })
			if !ok {
				continue
			}
			what = "release " + id
			err = v.ReleaseHoldCtx(ctx, "arch-lee", id)
			delete(s.held, id)
		default:
			id, ok := s.pick(s.versions, func(id string) bool { return !s.held[id] })
			if !ok {
				continue
			}
			what = "shred " + id
			err = v.ShredCtx(ctx, "arch-lee", id)
			delete(s.versions, id)
		}
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, what, err)
		}
	}
}

// TestReplayEqualsLive: the state recovery builds by applying the log equals
// the state the live vault built by applying the same entries — from a pure
// WAL replay and from a snapshot plus a WAL tail.
func TestReplayEqualsLive(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, midClose := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/snapshot=%v", shards, midClose), func(t *testing.T) {
				mem := faultfs.NewMem()
				v, vc, err := openTorture(mem, shards)
				if err != nil {
					t.Fatal(err)
				}
				script := &replayScript{rng: rand.New(rand.NewSource(19)), versions: map[string]int{}, held: map[string]bool{}}
				script.run(t, v, vc, 60)
				if midClose {
					if err := v.Close(); err != nil {
						t.Fatal(err)
					}
					if v, vc, err = openTorture(mem, shards); err != nil {
						t.Fatal(err)
					}
					script.run(t, v, vc, 40)
				}
				defer v.Close()
				img := mem.CrashImage(faultfs.KeepAll) // no Close: the tail lives only in the WAL
				live := captureState(t, v)

				re, _, err := openTorture(img, shards)
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				defer re.Close()
				if info := re.Health().LastRecovery; info.WALEntries == 0 || info.SnapshotLoaded != midClose {
					t.Fatalf("recovery did not take the intended path: %+v", info)
				}
				got := captureState(t, re)
				for i := range live.Shards {
					if !reflect.DeepEqual(got.Shards[i], live.Shards[i]) {
						t.Errorf("shard %d: recovered state differs from live:\n live %+v\n got  %+v", i, live.Shards[i], got.Shards[i])
					}
				}
				if !reflect.DeepEqual(got.Holds, live.Holds) {
					t.Errorf("holds: live %v, recovered %v", live.Holds, got.Holds)
				}
				if !reflect.DeepEqual(got.Searches, live.Searches) {
					t.Errorf("searches: live %v, recovered %v", live.Searches, got.Searches)
				}
				if len(live.Searches["absent"]) != 0 || len(live.Searches["asthma"])+len(live.Searches["migraine"]) == 0 {
					t.Errorf("search probes are not discriminating: %v", live.Searches)
				}
				if _, err := re.VerifyAll(nil, nil); err != nil {
					t.Fatalf("VerifyAll on the recovered vault: %v", err)
				}
			})
		}
	}
}

// TestReplayOverSnapshotSkipsEntriesOfShreddedRecord: a crash between the
// snapshot rename and the WAL checkpoint leaves a WAL whose hold, release
// and shred of a record the snapshot already shows shredded must all replay
// as no-ops. The hold used to fail recovery (retention no longer tracks a
// shredded record), leaving the vault unopenable.
func TestReplayOverSnapshotSkipsEntriesOfShreddedRecord(t *testing.T) {
	ctx := context.Background()
	mem := faultfs.NewMem()
	fsys := faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		if op.Kind == faultfs.OpRename && strings.Contains(op.Path, "meta.wal") {
			return &faultfs.Fault{Crash: true}
		}
		return nil
	})
	v, vc, err := openTorture(fsys, 1)
	if err != nil {
		t.Fatal(err)
	}
	old := vc.Now().Add(-50 * 365 * 24 * time.Hour)
	for _, id := range []string{"gone", "kept"} {
		if _, err := v.PutCtx(ctx, "dr-house", tortureRecord(id, 1, old)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.PlaceHoldCtx(ctx, "arch-lee", "gone", "inquiry"); err != nil {
		t.Fatal(err)
	}
	if err := v.ReleaseHoldCtx(ctx, "arch-lee", "gone"); err != nil {
		t.Fatal(err)
	}
	if err := v.ShredCtx(ctx, "arch-lee", "gone"); err != nil {
		t.Fatal(err)
	}
	live := captureState(t, v)
	if err := v.Close(); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("Close under crash injection: %v", err)
	}
	// Before the cut, Close's checkpoint moved the ciphertext from meta.wal
	// to the block store and snapshotted those refs.
	live.Shards[0].Versions = shardVersions(v.Shard(0))
	re, _, err := openTorture(mem.CrashImage(faultfs.KeepAll), 1)
	if err != nil {
		t.Fatalf("recovery over a snapshot that covers the WAL: %v", err)
	}
	defer re.Close()
	// Five mutations' entries, and eleven standalone audit events: two per
	// hold change, the shred's decision and captureState's six searches.
	// Their copies in audit/ are what the crash left too.
	if info := re.Health().LastRecovery; !info.SnapshotLoaded || info.WALEntries != 5+11 {
		t.Fatalf("recovery did not replay the covered WAL over the snapshot: %+v", info)
	}
	if got := captureState(t, re); !reflect.DeepEqual(got, live) {
		t.Errorf("recovered state differs from live:\n live %+v\n got  %+v", live, got)
	}
	if _, err := re.VerifyAll(nil, nil); err != nil {
		t.Fatal(err)
	}
}
