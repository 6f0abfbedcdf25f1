package httpapi

// The typed endpoint tests, driven through internal/medclient rather than
// raw HTTP. The client declares its own wire structs, so these tests pin the
// JSON contract from both sides: a payload rename in httpapi breaks here
// even if the handler and its raw-body tests agree with each other.

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"medvault/internal/clock"
	"medvault/internal/medclient"
)

// newClientServer serves a fresh vault and returns a physician-scoped client
// for it; other personas derive via As.
func newClientServer(t *testing.T) (*medclient.Client, *clock.Virtual) {
	t.Helper()
	ts, vc := newServer(t)
	return medclient.New(ts.URL, medclient.WithActor("dr-house")), vc
}

func clientRecord(id string) medclient.Record {
	return medclient.Record{
		ID: id, Patient: "Ada Lovelace", MRN: "mrn-1",
		Category: "clinical", Title: "Visit note",
		Body: "suspected hypertension, ordered panel", Codes: []string{"I10"},
		CreatedAt: epoch,
	}
}

func TestClientCreateGetCorrectHistory(t *testing.T) {
	phys, _ := newClientServer(t)
	ctx := context.Background()

	created, _, err := phys.CreateRecord(ctx, clientRecord("p1"))
	if err != nil {
		t.Fatal(err)
	}
	if created.Version != 1 {
		t.Errorf("created version = %d", created.Version)
	}
	// Duplicate conflicts.
	if _, _, err := phys.CreateRecord(ctx, clientRecord("p1"), http.StatusConflict); err != nil {
		t.Errorf("duplicate = %v", err)
	}

	got, _, err := phys.GetRecord(ctx, "p1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Body != clientRecord("p1").Body {
		t.Error("round trip mismatch")
	}

	corr := clientRecord("p1")
	corr.Body = "confirmed hypertension stage 1"
	corrected, _, err := phys.Correct(ctx, "p1", corr)
	if err != nil {
		t.Fatal(err)
	}
	if corrected.Version != 2 {
		t.Errorf("corrected version = %d", corrected.Version)
	}

	if v1, _, err := phys.GetVersion(ctx, "p1", 1); err != nil || !strings.Contains(v1.Body, "suspected") {
		t.Errorf("get v1 = %+v, %v", v1, err)
	}
	hist, _, err := phys.History(ctx, "p1")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || hist[1].Number != 2 {
		t.Errorf("history = %v", hist)
	}
}

func TestClientAuthzMatrix(t *testing.T) {
	phys, _ := newClientServer(t)
	ctx := context.Background()
	if _, _, err := phys.CreateRecord(ctx, clientRecord("p1")); err != nil {
		t.Fatal(err)
	}

	// Each row expects exactly one status; the client errors on any other.
	for _, tc := range []struct {
		name  string
		actor string
		want  int
		call  func(c *medclient.Client, want int) error
	}{
		{"anonymous read", "", http.StatusUnauthorized, func(c *medclient.Client, want int) error {
			_, _, err := c.GetRecord(ctx, "p1", want)
			return err
		}},
		{"clerk reads clinical", "clerk-bob", http.StatusForbidden, func(c *medclient.Client, want int) error {
			_, _, err := c.GetRecord(ctx, "p1", want)
			return err
		}},
		{"nurse reads clinical", "nurse-joy", http.StatusOK, func(c *medclient.Client, want int) error {
			_, _, err := c.GetRecord(ctx, "p1", want)
			return err
		}},
		{"nurse corrects", "nurse-joy", http.StatusForbidden, func(c *medclient.Client, want int) error {
			_, _, err := c.Correct(ctx, "p1", clientRecord("p1"), want)
			return err
		}},
		{"physician reads missing record", "dr-house", http.StatusNotFound, func(c *medclient.Client, want int) error {
			_, _, err := c.GetRecord(ctx, "ghost", want)
			return err
		}},
		{"physician queries audit", "dr-house", http.StatusForbidden, func(c *medclient.Client, want int) error {
			_, _, err := c.Audit(ctx, medclient.AuditQuery{}, want)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(phys.As(tc.actor), tc.want); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		})
	}

	// The denials show up in the audit query (officer only).
	events, _, err := phys.As("officer-kim").Audit(ctx, medclient.AuditQuery{DeniedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Errorf("audited %d denials", len(events))
	}
}

func TestClientSearch(t *testing.T) {
	phys, _ := newClientServer(t)
	ctx := context.Background()
	for i, id := range []string{"p0", "p1", "p2", "p3"} {
		r := clientRecord(id)
		if i%2 == 1 {
			r.Body = "routine checkup, no findings"
		}
		if _, _, err := phys.CreateRecord(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	if ids, _, err := phys.Search(ctx, []string{"hypertension"}); err != nil || ids.Count != 2 {
		t.Errorf("search = %+v, %v", ids, err)
	}
	// Missing q is a client error.
	if _, _, err := phys.Search(ctx, nil, http.StatusBadRequest); err != nil {
		t.Errorf("missing q = %v", err)
	}
	// Conjunctive query: repeated q params.
	if ids, _, err := phys.Search(ctx, []string{"hypertension", "panel"}); err != nil || ids.Count != 2 {
		t.Errorf("AND search = %+v, %v", ids, err)
	}
	if ids, _, err := phys.Search(ctx, []string{"hypertension", "findings"}); err != nil || ids.Count != 0 {
		t.Errorf("disjoint AND search = %+v, %v", ids, err)
	}
}

func TestClientShredLifecycle(t *testing.T) {
	phys, vc := newClientServer(t)
	ctx := context.Background()
	arch := phys.As("arch-lee")
	if _, _, err := phys.CreateRecord(ctx, clientRecord("p1")); err != nil {
		t.Fatal(err)
	}
	// Too early: retention is active, a policy refusal (409), not a fault.
	if status, err := arch.Shred(ctx, "p1", http.StatusConflict); err != nil {
		t.Fatalf("early shred = %d, %v", status, err)
	}
	vc.Advance(40 * 365 * 24 * time.Hour)
	if _, err := phys.Shred(ctx, "p1", http.StatusForbidden); err != nil {
		t.Errorf("physician shred = %v", err)
	}
	if _, err := arch.Shred(ctx, "p1"); err != nil {
		t.Errorf("shred = %v", err)
	}
	// Gone afterwards, and history answers the same.
	if _, _, err := phys.GetRecord(ctx, "p1", http.StatusGone); err != nil {
		t.Errorf("get after shred = %v", err)
	}
}

// TestClientCustody drives GET /records/{id}/custody across the persona set
// and pins the chain contents for a created+corrected record.
func TestClientCustody(t *testing.T) {
	phys, _ := newClientServer(t)
	ctx := context.Background()
	if _, _, err := phys.CreateRecord(ctx, clientRecord("p1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := phys.Correct(ctx, "p1", clientRecord("p1")); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		actor string
		want  int
	}{
		{"officer-kim", http.StatusOK},
		{"arch-lee", http.StatusOK},
		{"dr-house", http.StatusForbidden},
		{"nurse-joy", http.StatusForbidden},
		{"clerk-bob", http.StatusForbidden},
		{"", http.StatusUnauthorized},
	} {
		t.Run("actor="+tc.actor, func(t *testing.T) {
			chain, _, err := phys.As(tc.actor).Custody(ctx, "p1", tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want != http.StatusOK {
				return
			}
			if len(chain) != 2 {
				t.Fatalf("custody chain = %+v", chain)
			}
			if chain[0].Type != "created" || chain[1].Type != "corrected" {
				t.Errorf("chain types = %q, %q", chain[0].Type, chain[1].Type)
			}
			if chain[0].Actor != "dr-house" {
				t.Errorf("chain[0].Actor = %q", chain[0].Actor)
			}
		})
	}
}

// TestClientProof drives GET /records/{id}/versions/{n}/proof through its
// success and failure rows.
func TestClientProof(t *testing.T) {
	phys, _ := newClientServer(t)
	ctx := context.Background()
	if _, _, err := phys.CreateRecord(ctx, clientRecord("p1")); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		record  string
		version uint64
		want    int
	}{
		{"existing version", "p1", 1, http.StatusOK},
		{"missing version", "p1", 9, http.StatusNotFound},
		{"missing record", "ghost", 1, http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proof, _, err := phys.Proof(ctx, tc.record, tc.version, tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want != http.StatusOK {
				return
			}
			if proof.RecordID != tc.record || proof.Version != tc.version {
				t.Errorf("proof identity = %+v", proof)
			}
			if proof.HeadSize == 0 || proof.VaultKey == "" || proof.CtHash == "" {
				t.Errorf("proof incomplete = %+v", proof)
			}
		})
	}
	// A non-numeric version segment never reaches the typed client; pin the
	// raw answer too.
	resp, err := phys.Raw(ctx, "GET", "/records/p1/versions/x/proof", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric version = %d", resp.StatusCode)
	}
}

// TestClientDisclosures drives the HIPAA accounting endpoint: every access
// to a patient's records appears, and only audit-capable roles may pull it.
func TestClientDisclosures(t *testing.T) {
	phys, _ := newClientServer(t)
	ctx := context.Background()
	if _, _, err := phys.CreateRecord(ctx, clientRecord("mrn-1/enc-0")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := phys.CreateRecord(ctx, clientRecord("mrn-1/enc-1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := phys.As("nurse-joy").GetRecord(ctx, "mrn-1/enc-0"); err != nil {
		t.Fatal(err)
	}

	if recs, _, err := phys.PatientRecords(ctx, "mrn-1"); err != nil || recs.Count != 2 {
		t.Errorf("patient records = %+v, %v", recs, err)
	}

	for _, tc := range []struct {
		actor string
		mrn   string
		want  int
	}{
		{"officer-kim", "mrn-1", http.StatusOK},
		{"dr-house", "mrn-1", http.StatusForbidden},
		{"", "mrn-1", http.StatusUnauthorized},
		{"officer-kim", "mrn-unknown", http.StatusNotFound},
	} {
		t.Run(tc.actor+"/"+tc.mrn, func(t *testing.T) {
			ds, _, err := phys.As(tc.actor).Disclosures(ctx, tc.mrn, tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want != http.StatusOK {
				return
			}
			if len(ds) != 3 { // 2 creates + 1 read
				t.Fatalf("disclosures = %+v", ds)
			}
			var sawRead bool
			for _, d := range ds {
				if d.Actor == "nurse-joy" && d.Action == "read" {
					sawRead = true
				}
				if d.BreakGlass {
					t.Errorf("unexpected break-glass disclosure: %+v", d)
				}
			}
			if !sawRead {
				t.Errorf("nurse read missing from accounting: %+v", ds)
			}
		})
	}
}

// TestClientRetentionExpired drives GET /retention/expired across roles and
// the retention clock.
func TestClientRetentionExpired(t *testing.T) {
	phys, vc := newClientServer(t)
	ctx := context.Background()
	arch := phys.As("arch-lee")
	if _, _, err := phys.CreateRecord(ctx, clientRecord("p1")); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		actor string
		want  int
	}{
		{"arch-lee", http.StatusOK},
		{"dr-house", http.StatusForbidden},
		{"officer-kim", http.StatusForbidden},
		{"", http.StatusUnauthorized},
	} {
		if _, _, err := phys.As(tc.actor).ExpiredRecords(ctx, tc.want); err != nil {
			t.Errorf("expired as %q: %v", tc.actor, err)
		}
	}

	// Nothing expires at t0; the clinical record expires within 10 years.
	if ids, _, err := arch.ExpiredRecords(ctx); err != nil || ids.Count != 0 {
		t.Errorf("expired at t0 = %+v, %v", ids, err)
	}
	vc.Advance(10 * 365 * 24 * time.Hour)
	ids, _, err := arch.ExpiredRecords(ctx)
	if err != nil || ids.Count != 1 || len(ids.IDs) != 1 || ids.IDs[0] != "p1" {
		t.Errorf("expired at 10y = %+v, %v", ids, err)
	}
}

// TestClientRetentionHolds drives the legal-hold lifecycle: place, list,
// blocked disposal, release, disposal proceeds — plus the error rows.
func TestClientRetentionHolds(t *testing.T) {
	phys, vc := newClientServer(t)
	ctx := context.Background()
	arch := phys.As("arch-lee")
	if _, _, err := phys.CreateRecord(ctx, clientRecord("p1")); err != nil {
		t.Fatal(err)
	}
	// Disposal inside the retention period is refused by policy: 409.
	if status, err := arch.Shred(ctx, "p1", http.StatusConflict); err != nil {
		t.Fatalf("shred inside retention = %d, %v", status, err)
	}
	vc.Advance(10 * 365 * 24 * time.Hour) // past clinical retention

	for _, tc := range []struct {
		name string
		call func() (int, error)
	}{
		{"place hold", func() (int, error) { return arch.PlaceHold(ctx, "p1", "litigation") }},
		{"physician places hold", func() (int, error) {
			return phys.PlaceHold(ctx, "p1", "x", http.StatusForbidden)
		}},
		{"hold on missing record", func() (int, error) {
			return arch.PlaceHold(ctx, "ghost", "x", http.StatusNotFound)
		}},
		{"reasonless hold", func() (int, error) {
			return arch.PlaceHold(ctx, "p1", "", http.StatusBadRequest)
		}},
	} {
		if status, err := tc.call(); err != nil {
			t.Fatalf("%s = %d, %v", tc.name, status, err)
		}
	}
	// The physician's refused hold is the vault's decision, so it is audited.
	events, _, err := phys.As("officer-kim").Audit(ctx, medclient.AuditQuery{Actor: "dr-house"})
	if err != nil {
		t.Fatal(err)
	}
	audited := false
	for _, ev := range events {
		audited = audited || ev.Action == "policy" && ev.Outcome == "denied" && ev.Record == "p1"
	}
	if !audited {
		t.Errorf("denied hold request not audited: %+v", events)
	}

	holds, _, err := arch.Holds(ctx)
	if err != nil || len(holds) != 1 {
		t.Fatalf("holds = %+v, %v", holds, err)
	}
	if holds[0].Record != "p1" || holds[0].Reason != "litigation" {
		t.Errorf("hold = %+v", holds[0])
	}
	if _, _, err := phys.Holds(ctx, http.StatusForbidden); err != nil {
		t.Errorf("physician lists holds: %v", err)
	}

	// Disposal refuses while the hold stands (409), proceeds after release.
	if status, err := arch.Shred(ctx, "p1", http.StatusConflict); err != nil {
		t.Fatalf("shred under hold = %d, %v", status, err)
	}
	if _, err := arch.ReleaseHold(ctx, "p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := arch.Shred(ctx, "p1"); err != nil {
		t.Errorf("shred after release = %v", err)
	}
}

// TestClientBreakGlass drives POST /breakglass: the emergency grant flips a
// denial into an allowed read, and the grant's uses are flagged in the
// accounting of disclosures.
func TestClientBreakGlass(t *testing.T) {
	phys, _ := newClientServer(t)
	ctx := context.Background()
	clerk := phys.As("clerk-bob")
	if _, _, err := phys.CreateRecord(ctx, clientRecord("p1")); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		actor   string
		reason  string
		minutes int
		want    int
	}{
		{"granted", "clerk-bob", "mass casualty triage", 30, http.StatusOK},
		{"missing reason", "clerk-bob", "", 30, http.StatusBadRequest},
		{"anonymous", "", "x", 30, http.StatusUnauthorized},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := phys.As(tc.actor).BreakGlass(ctx, tc.reason, tc.minutes, tc.want); err != nil {
				t.Error(err)
			}
		})
	}

	// The clerk was denied before the grant (the matrix test pins that); with
	// it, the read succeeds and the disclosure is break-glass flagged.
	if _, _, err := clerk.GetRecord(ctx, "p1"); err != nil {
		t.Fatalf("break-glass read: %v", err)
	}
	ds, _, err := phys.As("officer-kim").Disclosures(ctx, "mrn-1")
	if err != nil {
		t.Fatal(err)
	}
	var flagged bool
	for _, d := range ds {
		if d.Actor == "clerk-bob" && d.Action == "read" && d.BreakGlass {
			flagged = true
		}
	}
	if !flagged {
		t.Errorf("break-glass read not flagged in disclosures: %+v", ds)
	}
}

// TestBreakGlassDurationBound pins the grant cap over HTTP: a grant longer
// than authz.MaxBreakGlass is a 400 that leaves no grant behind, including a
// minute count whose conversion to a duration would wrap into the valid
// range, and the cap itself is still granted.
func TestBreakGlassDurationBound(t *testing.T) {
	phys, _ := newClientServer(t)
	ctx := context.Background()
	clerk := phys.As("clerk-bob")
	if _, _, err := phys.CreateRecord(ctx, clientRecord("p1")); err != nil {
		t.Fatal(err)
	}
	for _, minutes := range []int{24*60 + 1, 1<<53 + 60} { // (1<<53 + 60) minutes wraps to exactly one hour
		if _, err := clerk.BreakGlass(ctx, "code blue", minutes, http.StatusBadRequest); err != nil {
			t.Errorf("%d minutes: %v", minutes, err)
		}
		if _, _, err := clerk.GetRecord(ctx, "p1", http.StatusForbidden); err != nil {
			t.Errorf("after a refused %d-minute grant the clerk reads: %v", minutes, err)
		}
	}
	if _, err := clerk.BreakGlass(ctx, "code blue", 24*60); err != nil {
		t.Fatalf("a grant of exactly the cap: %v", err)
	}
	if _, _, err := clerk.GetRecord(ctx, "p1"); err != nil {
		t.Errorf("read under a 24 h grant: %v", err)
	}
}

func TestClientVerify(t *testing.T) {
	phys, _ := newClientServer(t)
	ctx := context.Background()
	if _, _, err := phys.CreateRecord(ctx, clientRecord("p1")); err != nil {
		t.Fatal(err)
	}
	rep, _, err := phys.As("officer-kim").Verify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "ok" || rep.RecordsChecked != 1 || rep.VersionsChecked != 1 {
		t.Errorf("verify = %+v", rep)
	}
	if rep.TreeHeadSize == 0 {
		t.Errorf("verify head = %+v", rep)
	}
}
