package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"medvault/internal/audit"
	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/faultfs"
	"medvault/internal/retention"
	"medvault/internal/vcrypto"
	"medvault/internal/wal"
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
				actorName = "arch-lee" // may hold records, so only the body is at fault
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

// TestVerifyAuthorizesItsCaller: the sweep takes every shard's op gate
// exclusively, so only an actor with audit permission may start it. An
// unknown principal and a physician get 403, each shard's chain holds a
// denied verify event naming the caller, and no sweep ran; a compliance
// officer's request sweeps every shard.
func TestVerifyAuthorizesItsCaller(t *testing.T) {
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	v, err := core.Open(core.Config{Name: "api-test", Master: master, Clock: clock.NewVirtual(epoch), Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	provisionPersonas(t, v)
	ts := httptest.NewServer(New(v))
	t.Cleanup(ts.Close)

	verifyEvents := func(actor string) (denied, allowed int) {
		t.Helper()
		events, err := v.AuditEventsCtx(context.Background(), "officer-kim", audit.Query{Actor: actor, Action: audit.ActionVerify})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			switch e.Outcome {
			case audit.OutcomeDenied:
				denied++
			case audit.OutcomeAllowed:
				allowed++
			}
		}
		return denied, allowed
	}
	for _, actor := range []string{"nobody-at-all", "dr-house"} {
		if code := do(t, ts, "POST", "/verify", actor, nil, nil); code != http.StatusForbidden {
			t.Errorf("POST /verify as %s = %d, want 403", actor, code)
		}
		if denied, allowed := verifyEvents(actor); denied != shards || allowed != 0 {
			t.Errorf("%s: %d denied and %d allowed verify events, want %d denied (one per shard)", actor, denied, allowed, shards)
		}
	}
	if _, sweeps := verifyEvents("api-test"); sweeps != 0 {
		t.Errorf("%d sweeps ran for refused callers, want 0", sweeps)
	}
	if code := do(t, ts, "POST", "/verify", "officer-kim", nil, nil); code != http.StatusOK {
		t.Fatalf("POST /verify as officer-kim = %d, want 200", code)
	}
	if _, sweeps := verifyEvents("api-test"); sweeps != shards {
		t.Errorf("%d shard sweeps ran for the officer, want %d", sweeps, shards)
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

func (tamperedAPI) VerifyCtx(context.Context, string) (core.Report, error) {
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

// TestCorruptAuditFrameIsAnErrorNotAShorterAnswer: with one byte of an
// already-written audit frame flipped on the medium of a running durable
// vault, once a checkpoint has written the frames, the routes that would have returned that event answer a 5xx with
// an error body — never 200 with the rows that still read — and /verify
// reports the medium as an integrity failure.
func TestCorruptAuditFrameIsAnErrorNotAShorterAnswer(t *testing.T) {
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	mem := faultfs.NewMem()
	v, err := core.Open(core.Config{Name: "api-test", Master: master, Clock: clock.NewVirtual(epoch), Dir: "vault", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	provisionPersonas(t, v)
	ts := httptest.NewServer(New(v))
	t.Cleanup(ts.Close)

	if code := do(t, ts, "POST", "/records", "dr-house", sampleRecord("p1"), nil); code != http.StatusCreated {
		t.Fatalf("POST /records = %d", code)
	}
	for i := 0; i < 5; i++ {
		if code := do(t, ts, "GET", "/records/p1", "dr-house", nil, nil); code != http.StatusOK {
			t.Fatalf("GET /records/p1 = %d", code)
		}
	}
	var events []auditEventPayload
	if code := do(t, ts, "GET", "/audit?record=p1", "officer-kim", nil, &events); code != http.StatusOK || len(events) != 6 {
		t.Fatalf("clean audit query = %d with %d events, want 200 with 6", code, len(events))
	}

	// A checkpoint (here SanitizeMedia) copies the chain from meta.wal to
	// audit/. The create of p1 is the chain's first event; flip a byte
	// inside it.
	if _, _, err := v.SanitizeMedia("arch-lee"); err != nil {
		t.Fatal(err)
	}
	seg := "vault/audit/" + blockstore.SegmentName(0)
	raw, err := mem.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[40] ^= 0x01
	if err := mem.WriteFile(seg, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"/audit?record=p1", "/audit?actor=dr-house", "/audit", "/patients/mrn-1/disclosures"} {
		var body errorBody
		if code := do(t, ts, "GET", path, "officer-kim", nil, &body); code != http.StatusInternalServerError || body.Error == "" {
			t.Errorf("GET %s over a corrupt audit frame = %d %+v, want 500 with an error body", path, code, body)
		}
	}
	var verdict map[string]any
	if code := do(t, ts, "POST", "/verify", "officer-kim", nil, &verdict); code != http.StatusConflict || verdict["status"] != "INTEGRITY FAILURE" {
		t.Errorf("POST /verify over a corrupt audit frame = %d %v, want 409 INTEGRITY FAILURE", code, verdict)
	}
}

// custodyServer serves a running durable vault holding record p1, whose
// one-event custody chain reads clean.
func custodyServer(t *testing.T) (*core.Cluster, *faultfs.Mem, *httptest.Server) {
	t.Helper()
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	mem := faultfs.NewMem()
	v, err := core.Open(core.Config{Name: "api-test", Master: master, Clock: clock.NewVirtual(epoch), Dir: "vault", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	provisionPersonas(t, v)
	ts := httptest.NewServer(New(v))
	t.Cleanup(ts.Close)

	if code := do(t, ts, "POST", "/records", "dr-house", sampleRecord("p1"), nil); code != http.StatusCreated {
		t.Fatalf("POST /records = %d", code)
	}
	var chain []custodyPayload
	if code := do(t, ts, "GET", "/records/p1/custody", "officer-kim", nil, &chain); code != http.StatusOK || len(chain) != 1 {
		t.Fatalf("clean custody = %d with %d events, want 200 with 1", code, len(chain))
	}
	return v, mem, ts
}

// checkCustodyRoutesFail requires the custody route to answer 500 with an
// error body and /verify an integrity failure.
func checkCustodyRoutesFail(t *testing.T, ts *httptest.Server) {
	t.Helper()
	var body errorBody
	if code := do(t, ts, "GET", "/records/p1/custody", "officer-kim", nil, &body); code != http.StatusInternalServerError || body.Error == "" {
		t.Errorf("GET /records/p1/custody over a corrupt custody frame = %d %+v, want 500 with an error body", code, body)
	}
	var verdict map[string]any
	if code := do(t, ts, "POST", "/verify", "officer-kim", nil, &verdict); code != http.StatusConflict || verdict["status"] != "INTEGRITY FAILURE" {
		t.Errorf("POST /verify over a corrupt custody frame = %d %v, want 409 INTEGRITY FAILURE", code, verdict)
	}
}

// TestCorruptCustodyFrameIsAnErrorNotAShorterAnswer: the custody route and
// /verify read chains from the medium, so with one byte of a written custody
// frame flipped the route answers 500 with an error body — never 200 with the
// events that still read — and /verify reports an integrity failure. A
// checkpoint (here SanitizeMedia) is what writes the frame.
func TestCorruptCustodyFrameIsAnErrorNotAShorterAnswer(t *testing.T) {
	v, mem, ts := custodyServer(t)
	if _, _, err := v.SanitizeMedia("arch-lee"); err != nil {
		t.Fatal(err)
	}

	// The create of p1 is the custody store's first frame; flip a byte inside it.
	seg := "vault/prov/" + blockstore.SegmentName(0)
	raw, err := mem.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[40] ^= 0x01
	if err := mem.WriteFile(seg, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	checkCustodyRoutesFail(t, ts)
}

// TestEditedPendingCustodyEntryIsAnErrorNotAShorterAnswer: before a
// checkpoint p1's create event lives in its meta.wal entry. One byte of the
// author there changed, with the frame's CRC recomputed so the WAL reads
// clean, fails the custody route and /verify the same way.
func TestEditedPendingCustodyEntryIsAnErrorNotAShorterAnswer(t *testing.T) {
	_, mem, ts := custodyServer(t)
	const path = "vault/meta.wal"
	var creates []int64
	if _, _, err := wal.Read(mem, path, func(e wal.Entry) error {
		if e.Data[0] == 'P' && bytes.Contains(e.Data, []byte("dr-house")) {
			creates = append(creates, e.Off)
		}
		return nil
	}); err != nil || len(creates) != 1 {
		t.Fatalf("finding p1's create entry: %d found, %v", len(creates), err)
	}
	if err := wal.CorruptEntry(mem, path, creates[0], func(data []byte) []byte {
		data[bytes.Index(data, []byte("dr-house"))+len("dr-house")-1] ^= 0x01
		return data
	}); err != nil {
		t.Fatal(err)
	}
	checkCustodyRoutesFail(t, ts)
}

// TestEveryOutcomeHasAStatus: every label core.Outcome can return answers a
// status, and only a node failure or an outage is a 5xx — a refusal the
// vault's policy decides (denial, retention, legal hold) is the request's
// answer, not a fault. The map holds no label the table lacks.
func TestEveryOutcomeHasAStatus(t *testing.T) {
	labels := core.OutcomeLabels()
	if len(outcomeStatus) != len(labels) {
		t.Errorf("outcomeStatus has %d labels, the outcome table %d", len(outcomeStatus), len(labels))
	}
	fault := map[string]bool{"error": true, "closed": true, "wedged": true}
	for _, label := range labels {
		status, ok := outcomeStatus[label]
		switch {
		case !ok:
			t.Errorf("outcome %q has no status", label)
		case (status >= 500) != fault[label]:
			t.Errorf("outcome %q answers %d", label, status)
		}
	}
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("shred: %w", retention.ErrOnHold), http.StatusConflict},
		{fmt.Errorf("shred: %w", retention.ErrRetentionActive), http.StatusConflict},
		{fmt.Errorf("op: %w", core.ErrWedged), http.StatusServiceUnavailable},
		{&statusError{status: http.StatusConflict, err: core.ErrClosed}, http.StatusServiceUnavailable},
		{badRequest("nope"), http.StatusBadRequest},
		{fmt.Errorf("disk on fire"), http.StatusInternalServerError},
	} {
		rec := httptest.NewRecorder()
		writeErr(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("writeErr(%v) = %d, want %d", tc.err, rec.Code, tc.want)
		}
		if (rec.Code == http.StatusServiceUnavailable) != (rec.Header().Get("Retry-After") != "") {
			t.Errorf("writeErr(%v): Retry-After %q on %d", tc.err, rec.Header().Get("Retry-After"), rec.Code)
		}
	}
}

// TestInvalidRecordIs400: a well-formed body naming an invalid record (no
// MRN, an unknown category) reaches the vault, which refuses it with outcome
// "invalid" — a 400 on create and on correct, never a 500.
func TestInvalidRecordIs400(t *testing.T) {
	ts, _ := newServer(t)
	for _, tc := range []struct{ path, body string }{
		{"/records", `{"id":"bad-1","patient":"P","category":"clinical","title":"t","body":"b"}`},
		{"/records", `{"id":"bad-2","patient":"P","mrn":"m","category":"astrology","title":"t","body":"b"}`},
		{"/records/p1/corrections", `{"patient":"P","category":"clinical","title":"t","body":"b"}`},
	} {
		if code := rawRequest(t, ts.URL, "POST", tc.path, "dr-house", tc.body); code != http.StatusBadRequest {
			t.Errorf("POST %s %s = %d, want 400", tc.path, tc.body, code)
		}
	}
}
