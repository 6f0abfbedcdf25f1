package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"medvault/internal/ehr"
	"medvault/internal/faultfs"
)

// TestForgedSnapshotIdentityFailsClosed: meta.snap holds each record's
// category and MRN in the clear, and authorization trusts the category. An
// insider who rewrites a clinical record's category to billing there, or
// its MRN, gets ErrTampered from the next read and no plaintext, and from
// VerifyAll: the sealed record's identity must be the registry's. (An older
// binary served the clinical note to the billing clerk, and verified.)
func TestForgedSnapshotIdentityFailsClosed(t *testing.T) {
	const body = "FORGED-IDENTITY-SENTINEL clinical note"
	for _, tc := range []struct {
		name   string
		forge  func(*snapRecord)
		reader string
	}{
		{"category", func(r *snapRecord) { r.category = ehr.CategoryBilling }, "clerk-bob"},
		{"MRN", func(r *snapRecord) { r.mrn = "mrn-someone-else" }, "dr-house"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := faultfs.NewMem()
			master := mustKey(t)
			open := func() *Cluster {
				v, err := Open(Config{Name: "forged", Master: master, Clock: mustClock(), Dir: "vault", FS: mem})
				if err != nil {
					t.Fatal(err)
				}
				registerStaff(t, v)
				return v
			}
			v := open()
			rec := clinicalRecord(t, 3)
			rec.Body = body
			if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
				t.Fatal(err)
			}
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join("vault", "meta.snap")
			data, err := mem.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := decodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			tc.forge(&s.records[0])
			if err := mem.WriteFile(path, s.encode(), 0o600); err != nil {
				t.Fatal(err)
			}

			v = open()
			defer v.Close()
			got, _, err := v.GetCtx(context.Background(), tc.reader, rec.ID)
			if !errors.Is(err, ErrTampered) {
				t.Errorf("%s read the record with a forged %s: %v, want ErrTampered", tc.reader, tc.name, err)
			}
			if got.Body != "" {
				t.Errorf("a read under a forged %s returned the body %q", tc.name, got.Body)
			}
			if _, err := v.VerifyAll(nil, nil); !errors.Is(err, ErrTampered) {
				t.Errorf("VerifyAll over a forged %s: %v, want ErrTampered", tc.name, err)
			}
		})
	}
}

// TestKillImageWALNamesNoMRN: the meta.wal a kill -9 leaves holds no
// record's MRN. Creates carry no identity in the clear, and the records'
// IDs do not embed their MRNs, so a scan for each MRN finds nothing. (An
// older binary's creates spelled every one.)
func TestKillImageWALNamesNoMRN(t *testing.T) {
	mem := faultfs.NewMem()
	v, err := Open(Config{Name: "leak", Master: mustKey(t), Clock: mustClock(), Dir: "vault", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	registerStaff(t, v)
	ctx := context.Background()
	recs := clinicalRecords(t, 11, 8)
	for i := range recs {
		recs[i].ID = fmt.Sprintf("note-%d", i)
		if _, err := v.PutCtx(ctx, "dr-house", recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range recs[:3] {
		r.Body += " (amended)"
		if _, err := v.CorrectCtx(ctx, "dr-house", r); err != nil {
			t.Fatal(err)
		}
	}
	image, err := mem.ReadFile(filepath.Join("vault", "meta.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if len(r.MRN) < 4 {
			t.Fatalf("record %s has the MRN %q, too short to scan for", r.ID, r.MRN)
		}
		if bytes.Contains(image, []byte(r.MRN)) {
			t.Errorf("meta.wal (%d B) names %s's MRN", len(image), r.ID)
		}
	}
}
