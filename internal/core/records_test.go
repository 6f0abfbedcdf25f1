package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/frame"
	"medvault/internal/merkle"
)

// TestAbsentReadsNumberNothing: only what registers a record numbers its ID.
// A thousand reads of IDs no one ever wrote — get, history, custody, proof,
// version count — must leave every shard's record table as it was, or a
// prober could grow the vault's memory without writing a byte.
func TestAbsentReadsNumberNothing(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			v, vc, err := openTorture(faultfs.NewMem(), shards)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			for i := 0; i < 8; i++ {
				if _, err := v.PutCtx(ctx, "dr-house", tortureRecord(fmt.Sprintf("rec-%d", i), 1, vc.Now())); err != nil {
					t.Fatal(err)
				}
			}
			before := make([]int, shards)
			for i := range before {
				before[i] = v.Shard(i).recs.Len()
			}
			for i := 0; i < 1000; i++ {
				id := fmt.Sprintf("never-written-%d", i)
				var err error
				switch i % 5 {
				case 0, 1:
					_, _, err = v.GetCtx(ctx, "dr-house", id)
				case 2:
					_, err = v.HistoryCtx(ctx, "dr-house", id)
				case 3:
					_, err = v.ProveVersionCtx(ctx, "dr-house", id, 1)
				case 4:
					_, err = v.VersionCount(id)
				}
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("read of %s: %v, want ErrNotFound", id, err)
				}
			}
			for i := range before {
				if got := v.Shard(i).recs.Len(); got != before[i] {
					t.Errorf("shard %d: record table grew from %d to %d numbers on reads of absent IDs", i, before[i], got)
				}
			}
		})
	}
}

// tableView is what a shard's per-record tables answer, by ID: its live key
// IDs, how many custody chains VerifyAll checks, and the index's answers.
type tableView struct {
	KeyIDs   [][]string
	Chains   []int
	Searches map[string][]string
}

func viewTables(t *testing.T, v *Cluster) tableView {
	t.Helper()
	view := tableView{Searches: captureState(t, v).Searches}
	for i := 0; i < v.NumShards(); i++ {
		sh := v.Shard(i)
		rep, err := sh.VerifyAll(nil, nil)
		if err != nil {
			t.Fatalf("shard %d: VerifyAll: %v", i, err)
		}
		view.KeyIDs = append(view.KeyIDs, sh.keys.IDs())
		view.Chains = append(view.Chains, rep.ProvenanceChains)
	}
	return view
}

// TestRecordTablesSurviveReopen: record numbers live only in RAM, and each
// open renumbers from what the snapshot, the WAL and the custody log say.
// The tables indexed by those numbers must answer the same by ID before a
// close, after a clean reopen, and after replaying a crash image.
func TestRecordTablesSurviveReopen(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			mem := faultfs.NewMem()
			v, vc, err := openTorture(mem, shards)
			if err != nil {
				t.Fatal(err)
			}
			script := &replayScript{rng: rand.New(rand.NewSource(23)), versions: map[string]int{}, held: map[string]bool{}}
			script.run(t, v, vc, 80)
			live := viewTables(t, v)
			if len(live.Searches["asthma"])+len(live.Searches["migraine"]) == 0 || live.Chains[0] == 0 {
				t.Fatalf("the workload left nothing to compare: %+v", live)
			}
			crashed := mem.CrashImage(faultfs.KeepAll)
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
			for name, fsys := range map[string]faultfs.FS{"clean reopen": mem, "crash image": crashed} {
				re, _, err := openTorture(fsys, shards)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := viewTables(t, re); !reflect.DeepEqual(got, live) {
					t.Errorf("%s answers differently:\n live %+v\n got  %+v", name, live, got)
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSnapshotVersionsCountFromOne: the registry keeps a version's number
// as its position, so a snapshot record whose versions are not 1, 2, … —
// or that has none — is refused at open, naming the record. The parent
// opened both; the record without versions then panicked on its first Get.
// A v4 snapshot implies each number, so only a v3 one can misnumber.
func TestSnapshotVersionsCountFromOne(t *testing.T) {
	for name, tc := range map[string]struct {
		v3      bool
		numbers []uint64
	}{
		"no versions":         {},
		"no versions (v3)":    {v3: true},
		"starts at 2 (v3)":    {v3: true, numbers: []uint64{2}},
		"skips a number (v3)": {v3: true, numbers: []uint64{1, 3}},
	} {
		// An empty vault's snapshot, with the odd record added.
		mem := faultfs.NewMem()
		v, _, err := openTorture(mem, 1)
		if err == nil {
			err = v.Close()
		}
		var snap *snapshot
		if err == nil {
			snap, err = readSnapshot(mem)
		}
		if err != nil {
			t.Fatal(err)
		}
		snap.records = []snapRecord{{id: "odd-record", category: ehr.CategoryClinical, mrn: "m-1"}}
		data := snap.encode()
		if tc.v3 {
			data = snapshotV3(snap, tc.numbers)
		}
		if err := mem.WriteFile("vault/meta.snap", data, 0o600); err != nil {
			t.Fatal(err)
		}
		if v, _, err := openTorture(mem, 1); err == nil || !strings.Contains(err.Error(), "odd-record") {
			if err == nil {
				v.Close()
			}
			t.Errorf("%s: Open = %v, want an error naming the record", name, err)
		}
	}
}

// snapshotV3 writes s in the v3 layout, which stored each version's number,
// giving its one record versions with the given numbers.
func snapshotV3(s *snapshot, numbers []uint64) []byte {
	b := binary.BigEndian.AppendUint16([]byte(snapMagic), 3)
	b = binary.BigEndian.AppendUint64(b, s.leafSeq)
	b = frame.AppendCount(b, 1)
	rec := s.records[0]
	b = frame.AppendStr(frame.AppendStr(frame.AppendStr(b, rec.id), string(rec.category)), rec.mrn)
	b = frame.AppendTime(append(b, rec.flags), rec.created)
	b = frame.AppendCount(b, len(numbers))
	for _, n := range numbers {
		b = binary.BigEndian.AppendUint64(frame.AppendStr(b, "dr-house"), n)
		b = append(b, make([]byte, 4+8+32+8+8)...) // ref, ctHash, time, leaf index
	}
	b = frame.AppendBytes(b, s.keystore)
	b = frame.AppendBytes(b, merkle.EncodeHashes(s.leaves))
	b = frame.AppendBytes(b, s.index)
	return frame.AppendCount(b, 0)
}

func readSnapshot(fsys faultfs.FS) (*snapshot, error) {
	data, err := fsys.ReadFile("vault/meta.snap")
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data)
}
