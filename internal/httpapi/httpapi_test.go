package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/vcrypto"
)

var epoch = time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)

// provisionPersonas installs the standard roles plus the test persona set.
func provisionPersonas(t testing.TB, v *core.Cluster) {
	t.Helper()
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
}

func newServer(t *testing.T) (*httptest.Server, *clock.Virtual) {
	t.Helper()
	ts, _, vc := newRawServerClock(t)
	return ts, vc
}

// newRawServer exposes the underlying vault alongside the server, for tests
// that need to wedge, wrap, or close it out from under the handler.
func newRawServer(t *testing.T) (*httptest.Server, *core.Cluster) {
	t.Helper()
	ts, v, _ := newRawServerClock(t)
	return ts, v
}

func newRawServerClock(t *testing.T) (*httptest.Server, *core.Cluster, *clock.Virtual) {
	t.Helper()
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	vc := clock.NewVirtual(epoch)
	v, err := core.Open(core.Config{Name: "api-test", Master: master, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	provisionPersonas(t, v)
	ts := httptest.NewServer(New(v))
	t.Cleanup(ts.Close)
	return ts, v, vc
}

// jsonBody marshals v into a request body reader.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// do sends a request as the given actor and decodes the JSON response.
func do(t *testing.T, ts *httptest.Server, method, path, actorName string, body any, out any) int {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(b)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, ts.URL+path, rdr)
	if err != nil {
		t.Fatal(err)
	}
	if actorName != "" {
		req.Header.Set(actorHeader, actorName)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func sampleRecord(id string) recordPayload {
	return recordPayload{
		ID: id, Patient: "Ada Lovelace", MRN: "mrn-1",
		Category: "clinical", Title: "Visit note",
		Body: "suspected hypertension, ordered panel", Codes: []string{"I10"},
		CreatedAt: epoch,
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newServer(t)
	var out map[string]any
	if code := do(t, ts, "GET", "/healthz", "", nil, &out); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if out["status"] != "ok" {
		t.Errorf("health = %v", out)
	}
}

func TestBadJSONRejected(t *testing.T) {
	ts, _ := newServer(t)
	req, _ := http.NewRequest("POST", ts.URL+"/records", strings.NewReader("{nope"))
	req.Header.Set(actorHeader, "dr-house")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON = %d", resp.StatusCode)
	}
}

// TestMetricsEndpoint drives a few requests through the instrumented mux and
// checks that /metrics exposes the vault-wide registry in Prometheus text
// format: HTTP per-route series, core op series, and the mechanism-level
// audit/crypto metrics recorded by the layers below.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newServer(t)

	rec := map[string]any{
		"id": "mrn-1-enc-1", "patient": "Pat Doe", "mrn": "mrn-1",
		"category": "clinical", "title": "visit", "body": "hypertension follow-up",
	}
	if code := do(t, ts, http.MethodPost, "/records", "dr-house", rec, nil); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	if code := do(t, ts, http.MethodGet, "/records/mrn-1-enc-1", "dr-house", nil, nil); code != http.StatusOK {
		t.Fatalf("get = %d", code)
	}
	// A 404 must be counted under its route pattern with status 4xx.
	if code := do(t, ts, http.MethodGet, "/records/nope", "dr-house", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing get = %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"# TYPE medvault_http_requests_total counter",
		`medvault_http_requests_total{route="POST /records",status="2xx"}`,
		`medvault_http_requests_total{route="GET /records/{id}",status="4xx"}`,
		"# TYPE medvault_http_request_seconds histogram",
		`medvault_core_ops_total{op="put",outcome="ok"}`,
		"medvault_core_op_seconds_bucket",
		"medvault_audit_events_total",
		"medvault_crypto_seal_seconds_count",
		"medvault_merkle_leaves_total",
		"medvault_records_live",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}
	// Nothing request-specific may leak into the metric labels.
	if strings.Contains(body, "mrn-1") {
		t.Error("/metrics leaks record identifiers")
	}
}
