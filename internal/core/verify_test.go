package core

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"medvault/internal/audit"
	"medvault/internal/blockstore"
	"medvault/internal/faultfs"
	"medvault/internal/obs"
	"medvault/internal/vcrypto"
)

// sweepFixture is a closed one-shard vault over mem: records "a" (two
// versions), "b" and "gone", the last shredded, so every ciphertext sits in
// the block store and every version in meta.snap.
func sweepFixture(t *testing.T) *faultfs.Mem {
	t.Helper()
	ctx := context.Background()
	mem := faultfs.NewMem()
	v, vc, err := openTorture(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	old := vc.Now().Add(-50 * 365 * 24 * time.Hour)
	for _, id := range []string{"a", "b", "gone"} {
		if _, err := v.PutCtx(ctx, "dr-house", tortureRecord(id, 1, old)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.CorrectCtx(ctx, "dr-house", tortureRecord("a", 2, old)); err != nil {
		t.Fatal(err)
	}
	if err := v.ShredCtx(ctx, "arch-lee", "gone"); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	return mem
}

// forgeSnapshot rewrites the closed vault's meta.snap through forge, which
// is handed each record's versions by ID.
func forgeSnapshot(t *testing.T, mem *faultfs.Mem, forge func(versions map[string][]Version)) {
	t.Helper()
	s, err := readSnapshot(mem)
	if err != nil {
		t.Fatal(err)
	}
	versions := make(map[string][]Version)
	for _, rec := range s.records {
		versions[rec.id] = rec.versions
	}
	forge(versions)
	if err := mem.WriteFile(filepath.Join("vault", "meta.snap"), s.encode(), 0o600); err != nil {
		t.Fatal(err)
	}
}

// TestSweepComparesEachVersionsLeaf: the sweep's check of a version's
// commitment is the commitment log's leaf at the version's index. A
// meta.snap whose version lists were rewritten — two versions' leaf indexes
// swapped, a shredded record's ciphertext and hash replaced together (which
// needs no key), an index past the log — fails VerifyAll with ErrTampered,
// and the proof route refuses to prove such a version rather than hand out a
// proof no verifier accepts, or fail bare.
func TestSweepComparesEachVersionsLeaf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(t *testing.T, mem *faultfs.Mem)
		prove string // a record whose version 1 the proof route must refuse; "" for none
	}{
		{"swapped leaf indexes", func(t *testing.T, mem *faultfs.Mem) {
			forgeSnapshot(t, mem, func(versions map[string][]Version) {
				a, b := &versions["a"][0], &versions["b"][0]
				a.LeafIndex, b.LeafIndex = b.LeafIndex, a.LeafIndex
			})
		}, "a"},
		{"shredded ciphertext and hash rewritten", func(t *testing.T, mem *faultfs.Mem) {
			forgeSnapshot(t, mem, func(versions map[string][]Version) {
				ver := &versions["gone"][0]
				blocks, err := blockstore.OpenFileFS(mem, filepath.Join("vault", "blocks"), 0)
				if err != nil {
					t.Fatal(err)
				}
				defer blocks.Close()
				err = blocks.CorruptFrame(ver.Ref, func(ct []byte) []byte {
					forged := append([]byte(nil), ct...)
					forged[0] ^= 1
					ver.CtHash = vcrypto.Hash(forged)
					return forged
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}, ""},
		{"leaf index past the log", func(t *testing.T, mem *faultfs.Mem) {
			forgeSnapshot(t, mem, func(versions map[string][]Version) {
				versions["b"][0].LeafIndex = 1 << 40
			})
		}, "b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := sweepFixture(t)
			tc.forge(t, mem)
			v, _, err := openTorture(mem, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			if _, err := v.VerifyAll(nil, nil); !errors.Is(err, ErrTampered) {
				t.Errorf("VerifyAll over %s: %v, want ErrTampered", tc.name, err)
			}
			if tc.prove == "" {
				return
			}
			if p, err := v.ProveVersionCtx(context.Background(), "dr-house", tc.prove, 1); !errors.Is(err, ErrTampered) {
				t.Errorf("proving %s v1 over %s: leaf %d, %v; want ErrTampered", tc.prove, tc.name, p.LeafIndex, err)
			}
		})
	}
}

// TestSweepStreamsTheAuditChainOnce: VerifyAll decodes each audit event once
// however many remembered checkpoints it is handed — the one stream notes
// the hash at each checkpoint's place — and still proves every one.
func TestSweepStreamsTheAuditChainOnce(t *testing.T) {
	ctx := context.Background()
	v, vc, err := openTorture(faultfs.NewMem(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	old := vc.Now().Add(-50 * 365 * 24 * time.Hour)
	shard := v.Shard(0)
	var cps []audit.Checkpoint
	for i := 0; i < 8; i++ {
		for _, id := range []string{"a", "b", "c"} {
			if _, err := v.PutCtx(ctx, "dr-house", tortureRecord(id+string(rune('0'+i)), 1, old)); err != nil {
				t.Fatal(err)
			}
		}
		cps = append(cps, shard.AuditCheckpoint())
	}
	for _, remembered := range [][]audit.Checkpoint{nil, cps} {
		events := shard.aud.Len()
		var rep Report
		w := countWork(func() { rep, err = shard.VerifyAll(nil, remembered) })
		if err != nil {
			t.Fatalf("VerifyAll with %d checkpoints: %v", len(remembered), err)
		}
		if w[obs.WorkAuditDecode] != events || rep.AuditEvents != events || rep.CheckpointsProven != len(remembered) {
			t.Errorf("VerifyAll with %d checkpoints decoded %d audit events, verified %d and proved %d checkpoints; want %d, %d and %d",
				len(remembered), w[obs.WorkAuditDecode], rep.AuditEvents, rep.CheckpointsProven, events, events, len(remembered))
		}
	}
}
