package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/obs"
)

// ed25519Ops reads medvault_crypto_ed25519_total{op}: every Ed25519 sign or
// verify the process has done.
func ed25519Ops(op string) uint64 {
	return obs.Default.Counter("medvault_crypto_ed25519_total", "", obs.L("op", op)).Value()
}

// TestReopenWorkPerRecord is the exact work budget of a durable shard:
// Ed25519 signs per put, and Ed25519 verifies, audit events decoded, WAL
// entries replayed, versions decrypted and SSE tokens derived at a clean
// reopen (after Close), at a crash reopen (no Close: the tail replays from
// the WAL) and in a VerifyAll sweep. Custody events are MACed on the medium
// and signed only when they leave the vault, and audit checkpoints are
// signed on demand, so the write path signs nothing, and opening or sweeping
// a medium of the vault's own events does no Ed25519 work at all.
func TestReopenWorkPerRecord(t *testing.T) {
	const records, corrected = 300, 100
	master := mustKey(t)
	open := func(fs faultfs.FS) *Cluster {
		t.Helper()
		v, err := Open(Config{Name: "reopen-work", Master: master, Clock: mustClock(), Dir: "vault", FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		registerStaff(t, v)
		return v
	}
	// verifies returns the Ed25519 verifies fn does, per record, and the
	// other units of work it does, in total.
	verifies := func(fn func()) (float64, work) {
		before := ed25519Ops("verify")
		w := countWork(fn)
		return float64(ed25519Ops("verify")-before) / records, w
	}

	mem := faultfs.NewMem()
	v := open(mem)
	ctx := context.Background()
	g := ehr.NewGenerator(23, testEpoch)
	signs := ed25519Ops("sign")
	var recs []ehr.Record
	for i := 0; i < records; i++ {
		r := g.Next()
		r.Category = ehr.CategoryClinical
		if _, err := v.PutCtx(ctx, "dr-house", r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	for _, r := range recs[:corrected] {
		if _, err := v.CorrectCtx(ctx, "dr-house", g.Correction(r)); err != nil {
			t.Fatal(err)
		}
	}
	puts := records + corrected
	signed := ed25519Ops("sign") - signs
	events := v.Shard(0).aud.Len()

	crash, crashWork := verifies(func() {
		re := open(mem.CrashImage(faultfs.KeepAll))
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	var re *Cluster
	clean, cleanWork := verifies(func() { re = open(mem) })
	sweep, sweepWork := verifies(func() {
		if _, err := re.VerifyAll(nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d puts and corrections: %d Ed25519 signs", puts, signed)
	t.Logf("Ed25519 verifies per record: clean reopen %.3f, crash reopen %.3f, VerifyAll %.3f", clean, crash, sweep)
	t.Logf("clean reopen: %v; crash reopen: %v; VerifyAll: %v", cleanWork, crashWork, sweepWork)
	// When every custody event was signed, this was 404 signs (1.01 per put)
	// and 1.333 verifies per record, one per custody event, at either reopen
	// and in the sweep; with an automatic audit checkpoint every 100 events,
	// it was 4 signs.
	if signed != 0 {
		t.Errorf("%d puts signed %d times; want none", puts, signed)
	}
	// The rest of the budget: every reader decodes each audit event once; a
	// clean reopen starts from the snapshot Close wrote, so it replays,
	// decrypts and tokenizes nothing; a crash reopen replays every put and
	// correction from the WAL and decrypts each version to re-index it
	// (crashTokens is the seeded search text's token count); the sweep
	// decrypts every version once and derives no token.
	const crashTokens = 6795
	for _, c := range []struct {
		what string
		per  float64
		got  work
		want work
	}{
		{"clean reopen", clean, cleanWork, work{obs.WorkAuditDecode: events}},
		{"crash reopen", crash, crashWork, work{obs.WorkAuditDecode: events, obs.WorkWALReplay: puts, obs.WorkDecrypt: puts, obs.WorkSSEToken: crashTokens}},
		{"VerifyAll", sweep, sweepWork, work{obs.WorkAuditDecode: events, obs.WorkDecrypt: puts}},
	} {
		if c.per != 0 {
			t.Errorf("%s did %.3f Ed25519 verifies per record, want 0", c.what, c.per)
		}
		if c.got.String() != c.want.String() {
			t.Errorf("%s did %v\nwant %v", c.what, c.got, c.want)
		}
	}
}

// work is how many units of each obs.WorkKind an operation did.
type work map[obs.WorkKind]int

func (w work) String() string {
	return fmt.Sprintf("%d audit events decoded, %d WAL entries replayed, %d versions decrypted, %d SSE tokens derived",
		w[obs.WorkAuditDecode], w[obs.WorkWALReplay], w[obs.WorkDecrypt], w[obs.WorkSSEToken])
}

// countWork counts the units of work fn does, through the obs work hook.
func countWork(fn func()) work {
	var mu sync.Mutex
	w := work{}
	obs.SetWorkHook(func(k obs.WorkKind) {
		mu.Lock()
		w[k]++
		mu.Unlock()
	})
	defer obs.SetWorkHook(nil)
	fn()
	return w
}
