package medclient_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/httpapi"
	"medvault/internal/medclient"
	"medvault/internal/vcrypto"
)

var epoch = time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)

// newVaultServer serves a fresh in-memory vault over httpapi with the
// standard persona set provisioned.
func newVaultServer(t testing.TB) *httptest.Server {
	t.Helper()
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.Open(core.Config{Name: "client-test", Master: master, Clock: clock.NewVirtual(epoch)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	a := v.Authz()
	for _, r := range authz.StandardRoles() {
		a.DefineRole(r)
	}
	for id, role := range map[string]string{
		"dr-house": "physician", "nurse-joy": "nurse", "clerk-bob": "billing-clerk",
		"officer-kim": "compliance-officer", "arch-lee": "archivist",
	} {
		if err := a.AddPrincipal(id, role); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(httpapi.New(v))
	t.Cleanup(ts.Close)
	return ts
}

func sampleRecord(id string) medclient.Record {
	return medclient.Record{
		ID: id, Patient: "Ada Lovelace", MRN: "mrn-1",
		Category: "clinical", Title: "Visit note",
		Body: "suspected hypertension, ordered panel", Codes: []string{"I10"},
		CreatedAt: epoch,
	}
}

func TestDefaultExpectationIsSuccessStatus(t *testing.T) {
	ts := newVaultServer(t)
	ctx := context.Background()
	c := medclient.New(ts.URL, medclient.WithActor("dr-house"))

	created, status, err := c.CreateRecord(ctx, sampleRecord("p1"))
	if err != nil || status != http.StatusCreated {
		t.Fatalf("create = %d, %v", status, err)
	}
	if created.Version != 1 {
		t.Errorf("created version = %d", created.Version)
	}
	got, _, err := c.GetRecord(ctx, "p1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Body != sampleRecord("p1").Body {
		t.Error("round trip mismatch")
	}
	// A duplicate create without an expectation override is an error…
	if _, _, err := c.CreateRecord(ctx, sampleRecord("p1")); err == nil {
		t.Fatal("duplicate create passed the default 201 expectation")
	}
	// …and with one, a clean assertion.
	if _, status, err := c.CreateRecord(ctx, sampleRecord("p1"), http.StatusConflict); err != nil || status != http.StatusConflict {
		t.Errorf("expected conflict = %d, %v", status, err)
	}
}

func TestExpectedDenialIsNotAnError(t *testing.T) {
	ts := newVaultServer(t)
	ctx := context.Background()
	phys := medclient.New(ts.URL, medclient.WithActor("dr-house"))
	if _, _, err := phys.CreateRecord(ctx, sampleRecord("p1")); err != nil {
		t.Fatal(err)
	}

	clerk := phys.As("clerk-bob")
	// The scenario allows exactly a denial: nil error, status 403, zero value.
	rec, status, err := clerk.GetRecord(ctx, "p1", http.StatusForbidden)
	if err != nil || status != http.StatusForbidden {
		t.Fatalf("expected denial = %d, %v", status, err)
	}
	if rec.ID != "" {
		t.Errorf("denied call decoded a record: %+v", rec)
	}
	// Without the expectation the same call is a StatusError carrying the
	// server's error envelope.
	_, _, err = clerk.GetRecord(ctx, "p1")
	var serr *medclient.StatusError
	if !errors.As(err, &serr) {
		t.Fatalf("unexpected denial error = %T %v", err, err)
	}
	if serr.Status != http.StatusForbidden || serr.Method != "GET" {
		t.Errorf("StatusError = %+v", serr)
	}
	env, ok := serr.Envelope()
	if !ok || !strings.Contains(env.Error, "denied") {
		t.Errorf("envelope = %+v (ok=%v)", env, ok)
	}
	// An expected set may span success and denial; the caller branches.
	_, status, err = clerk.GetRecord(ctx, "p1", http.StatusOK, http.StatusForbidden)
	if err != nil || status != http.StatusForbidden {
		t.Errorf("dual expectation = %d, %v", status, err)
	}
}

func TestMissingActorGets401(t *testing.T) {
	ts := newVaultServer(t)
	c := medclient.New(ts.URL) // no actor
	if _, status, err := c.GetRecord(context.Background(), "p1", http.StatusUnauthorized); err != nil || status != http.StatusUnauthorized {
		t.Errorf("anonymous read = %d, %v", status, err)
	}
}

func TestFullSurfaceSmoke(t *testing.T) {
	// One pass over every remaining endpoint the typed client covers, so a
	// route rename or payload drift on either side fails here first.
	ts := newVaultServer(t)
	ctx := context.Background()
	phys := medclient.New(ts.URL, medclient.WithActor("dr-house"))
	officer := phys.As("officer-kim")
	archivist := phys.As("arch-lee")

	if _, _, err := phys.CreateRecord(ctx, sampleRecord("p1")); err != nil {
		t.Fatal(err)
	}
	corr := sampleRecord("p1")
	corr.Body = "confirmed hypertension stage 1"
	if _, _, err := phys.Correct(ctx, "p1", corr); err != nil {
		t.Fatal(err)
	}
	if hist, _, err := phys.History(ctx, "p1"); err != nil || len(hist) != 2 {
		t.Fatalf("history = %v, %v", hist, err)
	}
	if v1, _, err := phys.GetVersion(ctx, "p1", 1); err != nil || !strings.Contains(v1.Body, "suspected") {
		t.Fatalf("get v1 = %+v, %v", v1, err)
	}
	if ids, _, err := phys.Search(ctx, []string{"hypertension"}); err != nil || ids.Count != 1 {
		t.Fatalf("search = %+v, %v", ids, err)
	}
	if proof, _, err := phys.Proof(ctx, "p1", 2); err != nil || proof.HeadSize == 0 || proof.VaultKey == "" {
		t.Fatalf("proof = %+v, %v", proof, err)
	}
	if chain, _, err := officer.Custody(ctx, "p1"); err != nil || len(chain) == 0 {
		t.Fatalf("custody = %v, %v", chain, err)
	}
	if events, _, err := officer.Audit(ctx, medclient.AuditQuery{Record: "p1"}); err != nil || len(events) == 0 {
		t.Fatalf("audit = %v, %v", events, err)
	}
	if rep, _, err := officer.Verify(ctx); err != nil || rep.Status != "ok" {
		t.Fatalf("verify = %+v, %v", rep, err)
	}
	if ids, _, err := phys.PatientRecords(ctx, "mrn-1"); err != nil || ids.Count != 1 {
		t.Fatalf("patient records = %+v, %v", ids, err)
	}
	if ds, _, err := officer.Disclosures(ctx, "mrn-1"); err != nil || len(ds) == 0 {
		t.Fatalf("disclosures = %v, %v", ds, err)
	}
	if status, err := phys.As("clerk-bob").BreakGlass(ctx, "mass casualty triage", 30); err != nil || status != http.StatusOK {
		t.Fatalf("breakglass = %d, %v", status, err)
	}
	if _, _, err := archivist.ExpiredRecords(ctx); err != nil {
		t.Fatal(err)
	}
	if status, err := archivist.PlaceHold(ctx, "p1", "litigation"); err != nil || status != http.StatusOK {
		t.Fatalf("place hold = %d, %v", status, err)
	}
	if holds, _, err := archivist.Holds(ctx); err != nil || len(holds) != 1 || holds[0].Record != "p1" {
		t.Fatalf("holds = %v, %v", holds, err)
	}
	if status, err := archivist.ReleaseHold(ctx, "p1"); err != nil || status != http.StatusOK {
		t.Fatalf("release hold = %d, %v", status, err)
	}
	if h, _, err := phys.Healthz(ctx); err != nil || h.Status != "ok" || len(h.Shards) != 0 {
		t.Fatalf("healthz = %+v, %v", h, err)
	}
	if body, _, err := phys.Metrics(ctx); err != nil || !strings.Contains(body, "medvault_http_requests_total") {
		t.Fatalf("metrics = %v (len %d)", err, len(body))
	}
}

// TestSlashInRecordID pins path escaping: IDs containing '/' must travel as
// one path segment.
func TestSlashInRecordID(t *testing.T) {
	ts := newVaultServer(t)
	ctx := context.Background()
	c := medclient.New(ts.URL, medclient.WithActor("dr-house"))
	if _, _, err := c.CreateRecord(ctx, sampleRecord("mrn-1/enc-0")); err != nil {
		t.Fatal(err)
	}
	if got, _, err := c.GetRecord(ctx, "mrn-1/enc-0"); err != nil || got.ID != "mrn-1/enc-0" {
		t.Fatalf("get slashed ID = %+v, %v", got, err)
	}
}

// TestUnknownResponseFieldsTolerated pins forward compatibility on the
// client side: a newer server adding response fields must not break older
// clients.
func TestUnknownResponseFieldsTolerated(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"p1","mrn":"mrn-1","category":"clinical","version":3,
			"some_future_field":{"nested":true},"another":["x"]}`))
	}))
	defer stub.Close()
	c := medclient.New(stub.URL, medclient.WithActor("dr-house"))
	rec, status, err := c.GetRecord(context.Background(), "p1")
	if err != nil || status != http.StatusOK {
		t.Fatalf("get = %d, %v", status, err)
	}
	if rec.ID != "p1" || rec.Version != 3 {
		t.Errorf("decoded = %+v", rec)
	}
}
