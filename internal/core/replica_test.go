package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/frame"
	"medvault/internal/wal"
)

// TestReplicaHeadsReadsMetaWALAsRecoveryDoes: the keyless ReplicaHeads reads
// meta.wal through wal.Read, the reader recovery uses. On a copy of a live
// shard's files it derives the live head; a torn tail is ignored and left in
// place; a sequence gap is refused as wal.OpenFS refuses it.
func TestReplicaHeadsReadsMetaWALAsRecoveryDoes(t *testing.T) {
	mem := faultfs.NewMem()
	v, err := Open(Config{Name: "replica", Master: mustKey(t), Clock: mustClock(), Dir: "vault", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	registerStaff(t, v)
	g := ehr.NewGenerator(61, testEpoch)
	for puts := 0; puts < 3; {
		if rec := g.Next(); rec.Category == ehr.CategoryClinical {
			if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
				t.Fatal(err)
			}
			puts++
		}
	}
	live := v.Shard(0).Head()
	image, err := mem.ReadFile("vault/meta.wal")
	if err != nil {
		t.Fatal(err)
	}
	snap, snapErr := mem.ReadFile("vault/meta.snap")

	// replica lays out a copy of the shard with meta.wal replaced by walImage.
	replica := func(walImage []byte) *faultfs.Mem {
		r := faultfs.NewMem()
		if err := r.MkdirAll("vault", 0o700); err != nil {
			t.Fatal(err)
		}
		if snapErr == nil {
			if err := r.WriteFile("vault/meta.snap", snap, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.WriteFile("vault/meta.wal", walImage, 0o600); err != nil {
			t.Fatal(err)
		}
		return r
	}

	torn := append(append([]byte(nil), image...), frame.Seq.Append(nil, 99, []byte("torn"))[:7]...)
	r := replica(torn)
	for name, fsys := range map[string]*faultfs.Mem{"whole": replica(image), "torn tail": r} {
		heads, err := ReplicaHeads(fsys, "vault")
		if err != nil || len(heads) != 1 || heads[0].Size != live.Size || heads[0].Root != live.Root {
			t.Fatalf("%s: ReplicaHeads = %+v, %v; want the live head (size %d)", name, heads, err, live.Size)
		}
	}
	if after, _ := r.ReadFile("vault/meta.wal"); len(after) != len(torn) {
		t.Errorf("ReplicaHeads cut meta.wal from %d to %d bytes; it must only read", len(torn), len(after))
	}

	// Renumber the first entry (its sequence number is outside the CRC):
	// every frame still checks, but the log skips entry 0.
	gap := bytes.Clone(image)
	binary.BigEndian.PutUint64(gap, 1)
	if _, err := ReplicaHeads(replica(gap), "vault"); !errors.Is(err, wal.ErrCorrupt) {
		t.Errorf("ReplicaHeads over a sequence gap = %v, want wal.ErrCorrupt", err)
	}
}
