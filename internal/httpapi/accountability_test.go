package httpapi

// Accountability under concurrency: every access a persona makes — emergency
// and denied ones included — must land in the audit trail and the patient's
// accounting of disclosures, even when the accesses race each other across
// shards. The work is a fixed number of calls per actor, not a time window,
// so the checks always have the same amount of evidence to judge.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"medvault/internal/core"
	"medvault/internal/medclient"
	"medvault/internal/vcrypto"
)

const (
	trailMRNs       = 6
	trailClinicians = 3
	trailClerks     = 2
	trailResponders = 2
	trailOps        = 12 // calls per actor
)

// access is one actor's access to one record of one patient.
type access struct{ actor, record, mrn string }

// trail is what the personas did, as the test will demand the vault
// remembers it.
type trail struct {
	mu      sync.Mutex
	pool    []medclient.Record          // clinical records any persona may target
	latest  map[string]medclient.Record // created record -> its latest version
	denied  map[access]int              // expected-403 probes
	bgReads map[access]int              // reads under a break-glass grant
}

func (tr *trail) add(rec medclient.Record) {
	tr.mu.Lock()
	tr.pool = append(tr.pool, rec)
	tr.latest[rec.ID] = rec
	tr.mu.Unlock()
}

func (tr *trail) pick(rnd *rand.Rand) medclient.Record {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.pool[rnd.Intn(len(tr.pool))]
}

func (tr *trail) note(m map[access]int, a access) {
	tr.mu.Lock()
	m[a]++
	tr.mu.Unlock()
}

func trailRecord(id, mrn string) medclient.Record {
	return medclient.Record{
		ID: id, Patient: "Patient " + mrn, MRN: mrn, Category: "clinical",
		Title: "Encounter", Body: "chest pain triage, ECG ordered",
	}
}

func TestConcurrentPersonasLeaveAnAccountableTrail(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testAccountableTrail(t, shards) })
	}
}

func testAccountableTrail(t *testing.T, shards int) {
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.Open(core.Config{Name: "trail-test", Master: master, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	provisionPersonas(t, v)
	for _, p := range []struct {
		prefix, role string
		n            int
	}{{"clin", "physician", trailClinicians}, {"clerk", "billing-clerk", trailClerks}, {"resp", "billing-clerk", trailResponders}} {
		for i := 0; i < p.n; i++ {
			if err := v.Authz().AddPrincipal(fmt.Sprintf("%s-%d", p.prefix, i), p.role); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts := httptest.NewServer(New(v))
	t.Cleanup(ts.Close)
	c := medclient.New(ts.URL)
	ctx := context.Background()

	tr := &trail{latest: map[string]medclient.Record{}, denied: map[access]int{}, bgReads: map[access]int{}}
	mrns := make([]string, trailMRNs)
	for i := range mrns {
		mrns[i] = fmt.Sprintf("mrn-%d", i)
		rec, _, err := c.As("dr-house").CreateRecord(ctx, trailRecord("seed/"+mrns[i], mrns[i]))
		if err != nil {
			t.Fatal(err)
		}
		tr.add(rec)
	}

	var wg sync.WaitGroup
	run := func(seed int, actor string, work func(c *medclient.Client, rnd *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := work(c.As(actor), rand.New(rand.NewSource(int64(seed)))); err != nil {
				t.Errorf("%s: %v", actor, err)
			}
		}()
	}
	// Clinicians create, read back and correct their own records.
	for i := 0; i < trailClinicians; i++ {
		run(i, fmt.Sprintf("clin-%d", i), func(c *medclient.Client, rnd *rand.Rand) error {
			var mine []medclient.Record
			for n := 0; n < trailOps; n++ {
				if n%3 == 2 {
					k := rnd.Intn(len(mine))
					corr := mine[k]
					corr.Body += "; amended on review"
					got, _, err := c.Correct(ctx, corr.ID, corr)
					if err != nil {
						return err
					}
					mine[k] = got
					tr.add(got)
					continue
				}
				mrn := mrns[rnd.Intn(len(mrns))]
				rec, _, err := c.CreateRecord(ctx, trailRecord(fmt.Sprintf("%s/%02d", c.Actor(), n), mrn))
				if err != nil {
					return err
				}
				if _, _, err := c.GetRecord(ctx, rec.ID); err != nil {
					return err
				}
				mine = append(mine, rec)
				tr.add(rec)
			}
			return nil
		})
	}
	// Records clerks probe clinical records and must be refused.
	for i := 0; i < trailClerks; i++ {
		run(100+i, fmt.Sprintf("clerk-%d", i), func(c *medclient.Client, rnd *rand.Rand) error {
			for n := 0; n < trailOps; n++ {
				rec := tr.pick(rnd)
				if _, _, err := c.GetRecord(ctx, rec.ID, http.StatusForbidden); err != nil {
					return err
				}
				tr.note(tr.denied, access{c.Actor(), rec.ID, rec.MRN})
			}
			return nil
		})
	}
	// Billing clerks turned responders read clinical records under an
	// emergency grant.
	for i := 0; i < trailResponders; i++ {
		run(200+i, fmt.Sprintf("resp-%d", i), func(c *medclient.Client, rnd *rand.Rand) error {
			if _, err := c.BreakGlass(ctx, "mass casualty triage", 30); err != nil {
				return err
			}
			for n := 0; n < trailOps; n++ {
				rec := tr.pick(rnd)
				if _, _, err := c.GetRecord(ctx, rec.ID); err != nil {
					return err
				}
				tr.note(tr.bgReads, access{c.Actor(), rec.ID, rec.MRN})
			}
			return nil
		})
	}
	// A compliance officer reads the trail while it is being written.
	run(300, "officer-kim", func(c *medclient.Client, rnd *rand.Rand) error {
		for n := 0; n < trailOps; n++ {
			rec := tr.pick(rnd)
			if _, _, err := c.Audit(ctx, medclient.AuditQuery{DeniedOnly: true}); err != nil {
				return err
			}
			if _, _, err := c.Audit(ctx, medclient.AuditQuery{Record: rec.ID}); err != nil {
				return err
			}
			if _, _, err := c.Disclosures(ctx, rec.MRN); err != nil {
				return err
			}
		}
		return nil
	})
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := len(tr.latest); got != trailMRNs+trailClinicians*trailOps*2/3 {
		t.Fatalf("%d records created", got)
	}

	officer := c.As("officer-kim")
	// Every break-glass read is audited as an allowed read, flagged by the
	// break-glass event appended right after it...
	for a, want := range tr.bgReads {
		events, _, err := officer.Audit(ctx, medclient.AuditQuery{Actor: a.actor, Record: a.record})
		if err != nil {
			t.Fatal(err)
		}
		flagged := map[uint64]bool{}
		for _, e := range events {
			if e.Action == "break-glass" {
				flagged[e.Seq-1] = true
			}
		}
		got := 0
		for _, e := range events {
			if e.Action == "read" && e.Outcome == "allowed" && flagged[e.Seq] {
				got++
			}
		}
		if got != want {
			t.Errorf("audit holds %d flagged break-glass reads of %s by %s, want %d", got, a.record, a.actor, want)
		}
	}
	// ...and disclosed to the patient as break-glass.
	for a, want := range tr.bgReads {
		ds, _, err := officer.Disclosures(ctx, a.mrn)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, d := range ds {
			if d.Actor == a.actor && d.Record == a.record && d.Action == "read" && d.BreakGlass {
				got++
			}
		}
		if got != want {
			t.Errorf("%s disclosures hold %d break-glass reads of %s by %s, want %d", a.mrn, got, a.record, a.actor, want)
		}
	}
	// Every refused probe is in the denied view, and nothing else is.
	for i := 0; i < trailClerks; i++ {
		actor := fmt.Sprintf("clerk-%d", i)
		events, _, err := officer.Audit(ctx, medclient.AuditQuery{Actor: actor, DeniedOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		got := map[access]int{}
		for _, e := range events {
			got[access{actor, e.Record, tr.latest[e.Record].MRN}]++
		}
		for a, want := range tr.denied {
			if a.actor == actor && got[a] != want {
				t.Errorf("denied view holds %d refusals of %s to %s, want %d", got[a], a.record, actor, want)
			}
			delete(got, a)
		}
		if len(got) != 0 {
			t.Errorf("denied view holds refusals no probe made: %v", got)
		}
	}
	// Every created record reads back at its latest version.
	for id, want := range tr.latest {
		got, _, err := c.As("dr-house").GetRecord(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version != want.Version || got.Body != want.Body {
			t.Errorf("%s reads back v%d %q, want v%d %q", id, got.Version, got.Body, want.Version, want.Body)
		}
	}
	// The vault proves its integrity, with one tree head per shard.
	rep, _, err := officer.Verify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "ok" {
		t.Fatalf("verify = %+v", rep)
	}
	if shards == 1 {
		if rep.TreeHeadRoot == "" || len(rep.Shards) != 0 {
			t.Errorf("single-shard verify = %+v", rep)
		}
		return
	}
	var sum uint64
	for _, h := range rep.Shards {
		sum += h.TreeHeadSize
	}
	if len(rep.Shards) != shards || sum != rep.TreeHeadSize || rep.TreeHeadRoot != "" {
		t.Errorf("verify answered %d shard heads summing to %d, tree_head_size %d, root %q",
			len(rep.Shards), sum, rep.TreeHeadSize, rep.TreeHeadRoot)
	}
}
