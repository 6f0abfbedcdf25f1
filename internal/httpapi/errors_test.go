package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"medvault/internal/audit"
	"medvault/internal/core"
	"medvault/internal/merkle"
)

// rawRequest sends an arbitrary body (not necessarily JSON) as the given
// actor and returns the status code.
func rawRequest(t *testing.T, url, method, path, actorName, body string) int {
	t.Helper()
	req, err := http.NewRequest(method, url+path, bytes.NewReader([]byte(body)))
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
	resp.Body.Close()
	return resp.StatusCode
}

// TestMalformedJSONRejected: every JSON-accepting endpoint must answer 400
// to a syntactically broken body, not 500 and not a hang.
func TestMalformedJSONRejected(t *testing.T) {
	ts, _ := newServer(t)
	for _, tc := range []struct{ method, path string }{
		{"POST", "/records"},
		{"POST", "/records/p1/corrections"},
		{"POST", "/breakglass"},
		{"PUT", "/records/p1/hold"},
	} {
		for _, body := range []string{"{not json", `{"id": `, "\x00\x01\x02"} {
			actorName := "dr-house"
			if strings.Contains(tc.path, "hold") {
				actorName = "arch-lee" // hold endpoints gate on shred permission first
			}
			if code := rawRequest(t, ts.URL, tc.method, tc.path, actorName, body); code != http.StatusBadRequest {
				t.Errorf("%s %s with %q = %d, want 400", tc.method, tc.path, body, code)
			}
		}
	}
}

// TestOversizedBodyRejected: bodies beyond the 1 MiB cap must get 413, and
// the decoder must not buffer them wholesale first.
func TestOversizedBodyRejected(t *testing.T) {
	ts, _ := newServer(t)
	huge := `{"id":"p1","body":"` + strings.Repeat("x", maxBodyBytes+1024) + `"}`
	for _, tc := range []struct{ method, path, actor string }{
		{"POST", "/records", "dr-house"},
		{"POST", "/records/p1/corrections", "dr-house"},
		{"POST", "/breakglass", "nurse-joy"},
		{"PUT", "/records/p1/hold", "arch-lee"},
	} {
		if code := rawRequest(t, ts.URL, tc.method, tc.path, tc.actor, huge); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s oversized = %d, want 413", tc.method, tc.path, code)
		}
	}
}

// TestWrongMethodRejected: the Go 1.22 method-aware mux must answer 405 for
// a known path with the wrong verb.
func TestWrongMethodRejected(t *testing.T) {
	ts, _ := newServer(t)
	for _, tc := range []struct{ method, path string }{
		{"PUT", "/records"},
		{"DELETE", "/search"},
		{"POST", "/records/p1/history"},
		{"GET", "/verify"},
		{"PATCH", "/records/p1"},
	} {
		if code := rawRequest(t, ts.URL, tc.method, tc.path, "dr-house", ""); code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, code)
		}
	}
}

// TestUnknownRecordProbeAudited: probing a record that does not exist is
// signal — the request must 404 AND leave an audit trail of the attempt.
func TestUnknownRecordProbeAudited(t *testing.T) {
	ts, _ := newServer(t)
	if code := do(t, ts, "GET", "/records/ghost-record", "dr-house", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown record = %d, want 404", code)
	}
	var events []auditEventPayload
	if code := do(t, ts, "GET", "/audit?record=ghost-record", "officer-kim", nil, &events); code != http.StatusOK {
		t.Fatalf("audit query = %d", code)
	}
	found := false
	for _, e := range events {
		if e.Actor == "dr-house" && e.Record == "ghost-record" && e.Outcome == "error" {
			found = true
		}
	}
	if !found {
		t.Errorf("no audit entry for the unknown-record probe; got %+v", events)
	}
}

// TestMissingActorHeader: attributable access is mandatory — no header, no
// service, on reads and writes alike.
func TestMissingActorHeader(t *testing.T) {
	ts, _ := newServer(t)
	for _, tc := range []struct{ method, path string }{
		{"GET", "/records/p1"},
		{"POST", "/records"},
		{"GET", "/search?q=x"},
		{"GET", "/audit"},
		{"POST", "/breakglass"},
		{"GET", "/retention/holds"},
		{"POST", "/verify"}, // the sweep takes the whole vault exclusively; it used to run anonymously
	} {
		if code := rawRequest(t, ts.URL, tc.method, tc.path, "", "{}"); code != http.StatusUnauthorized {
			t.Errorf("%s %s without actor = %d, want 401", tc.method, tc.path, code)
		}
	}
}

// tamperedAPI fails the integrity sweep the way a rewritten ciphertext does.
type tamperedAPI struct {
	core.API
}

func (tamperedAPI) VerifyAll([]merkle.SignedTreeHead, []audit.Checkpoint) (core.Report, error) {
	return core.Report{}, fmt.Errorf("%w: p1 v1: ciphertext hash mismatch", core.ErrTampered)
}

// TestRouteSpecificErrorMappingsSurvive: funnelling every error through one
// writeErr must not flatten the two routes whose non-outage failures have a
// mapping of their own — /verify reports a failed sweep as 409 INTEGRITY
// FAILURE (with its own body shape), and /breakglass reports a refused grant
// (empty reason, unknown principal) as 400.
func TestRouteSpecificErrorMappingsSurvive(t *testing.T) {
	_, v := newRawServer(t)
	ts := httptest.NewServer(New(tamperedAPI{v}))
	defer ts.Close()

	var verdict map[string]any
	if code := do(t, ts, "POST", "/verify", "officer-kim", nil, &verdict); code != http.StatusConflict {
		t.Errorf("tampered /verify = %d, want 409", code)
	}
	if verdict["status"] != "INTEGRITY FAILURE" || verdict["error"] == nil {
		t.Errorf("tampered /verify body = %v", verdict)
	}
	for _, tc := range []struct{ name, actor, body string }{
		{"empty reason", "clerk-bob", `{"reason":"","minutes":5}`},
		{"unknown principal", "nobody-at-all", `{"reason":"code blue","minutes":5}`},
	} {
		if code := rawRequest(t, ts.URL, "POST", "/breakglass", tc.actor, tc.body); code != http.StatusBadRequest {
			t.Errorf("/breakglass with %s = %d, want 400", tc.name, code)
		}
	}
}
