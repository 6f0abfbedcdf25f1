package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/obs"
	"medvault/internal/vcrypto"
)

// newDurableServer builds a file-backed vault (WAL + blockstore on disk) so
// traces cross every mechanism, served with a private tracer so tests never
// race other tests through obs.DefaultTracer.
func newDurableServer(t *testing.T) (*httptest.Server, *core.Cluster, *obs.Tracer) {
	t.Helper()
	return newDurableServerAt(t, t.TempDir())
}

// newDurableServerAt is newDurableServer with the vault in dir.
func newDurableServerAt(t *testing.T, dir string) (*httptest.Server, *core.Cluster, *obs.Tracer) {
	t.Helper()
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.Open(core.Config{
		Name: "trace-test", Master: master,
		Clock: clock.NewVirtual(epoch), Dir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	a := v.Authz()
	for _, r := range authz.StandardRoles() {
		a.DefineRole(r)
	}
	for id, role := range map[string]string{
		"dr-house": "physician", "officer-kim": "compliance-officer",
	} {
		if err := a.AddPrincipal(id, role); err != nil {
			t.Fatal(err)
		}
	}
	tracer := obs.NewTracer(obs.TracerConfig{})
	ts := httptest.NewServer(New(v, WithTracer(tracer)))
	t.Cleanup(ts.Close)
	return ts, v, tracer
}

// dbgSpan / dbgTrace / dbgBody mirror the traces.go response for decoding.
type dbgSpan struct {
	Name     string    `json:"name"`
	Err      string    `json:"error"`
	Children []dbgSpan `json:"children"`
}

type dbgTrace struct {
	ID    string    `json:"id"`
	Op    string    `json:"op"`
	Err   string    `json:"error"`
	SpanN int       `json:"span_count"`
	Spans []dbgSpan `json:"spans"`
}

type dbgBody struct {
	Started  uint64     `json:"traces_started"`
	Finished uint64     `json:"traces_finished"`
	Count    int        `json:"count"`
	Traces   []dbgTrace `json:"traces"`
}

// spanNames flattens a span tree into a set of names.
func spanNames(spans []dbgSpan, into map[string]bool) map[string]bool {
	if into == nil {
		into = map[string]bool{}
	}
	for _, s := range spans {
		into[s.Name] = true
		spanNames(s.Children, into)
	}
	return into
}

// TestTraceRoundTrip is the acceptance check end to end: a mutating request
// gets (1) its trace ID in the X-Request-ID response header, (2) a
// retrievable trace under that ID whose spans cover crypto, WAL, index, and
// audit, and (3) audit entries stamped with the ID.
func TestTraceRoundTrip(t *testing.T) {
	ts, _, _ := newDurableServer(t)
	reqID := postRecord(t, ts, "p-traced", "")

	// The trace is retrievable by op filter and carries the request's ID.
	var out dbgBody
	if code := do(t, ts, "GET", "/debug/traces?op=records", "", nil, &out); code != 200 {
		t.Fatalf("debug/traces = %d", code)
	}
	var found bool
	for _, tr := range out.Traces {
		if tr.ID != reqID {
			continue
		}
		found = true
		if tr.Op != "POST /records" {
			t.Errorf("trace op = %q", tr.Op)
		}
		if tr.SpanN < 5 {
			t.Errorf("trace has %d spans, want >= 5", tr.SpanN)
		}
		names := spanNames(tr.Spans, nil)
		for _, want := range []string{"core.put", "crypto.seal", "wal.enqueue", "wal.commit", "index.add", "audit.append"} {
			if !names[want] {
				t.Errorf("trace missing span %q (have %v)", want, names)
			}
		}
	}
	if !found {
		t.Fatalf("trace %q not retained; body: %+v", reqID, out)
	}

	// The audit entries for the write carry the same trace ID.
	var events []auditEventPayload
	if code := do(t, ts, "GET", "/audit?record=p-traced", "officer-kim", nil, &events); code != 200 {
		t.Fatalf("audit query = %d", code)
	}
	if len(events) == 0 {
		t.Fatal("no audit events for traced write")
	}
	var stamped int
	for _, e := range events {
		if e.Trace == reqID {
			stamped++
		}
	}
	if stamped == 0 {
		t.Errorf("no audit entry stamped with trace %q: %+v", reqID, events)
	}
}

// postRecord creates sampleRecord(id) as dr-house, sending requestID as
// X-Request-ID unless it is "", and returns the response's X-Request-ID.
func postRecord(t *testing.T, ts *httptest.Server, id, requestID string) string {
	t.Helper()
	body, _ := json.Marshal(sampleRecord(id))
	req, err := http.NewRequest("POST", ts.URL+"/records", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(actorHeader, "dr-house")
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	return resp.Header.Get("X-Request-ID")
}

// TestServerMintsEveryTraceID: the server never adopts a client's
// X-Request-ID. A client that sends an MRN as its request ID gets a minted
// ID back, and the MRN reaches neither the debug planes (/debug/flight,
// /debug/traces, /metrics) nor the medium (the shard's flight segments, the
// audit events' trace field).
func TestServerMintsEveryTraceID(t *testing.T) {
	dir := t.TempDir()
	ts, _, _ := newDurableServerAt(t, dir)
	const phi = "mrn-000123"
	id := postRecord(t, ts, "p-minted", phi)
	if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
		t.Errorf("X-Request-ID = %q, want a minted 16-hex-char ID", id)
	}

	for _, path := range []string{"/debug/flight", "/debug/traces", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte(phi)) {
			t.Errorf("%s serves the client's request ID", path)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "flight", "*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no flight segment under %s (%v)", dir, err)
	}
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte(phi)) {
			t.Errorf("flight segment %s holds the client's request ID", filepath.Base(seg))
		}
	}
	var events []auditEventPayload
	if code := do(t, ts, "GET", "/audit?record=p-minted", "officer-kim", nil, &events); code != 200 {
		t.Fatalf("audit query = %d", code)
	}
	var stamped int
	for _, e := range events {
		if e.Trace == phi {
			t.Errorf("audit event %d names the client's request ID", e.Seq)
		}
		if e.Trace == id {
			stamped++
		}
	}
	if stamped == 0 {
		t.Errorf("no audit entry stamped with the minted trace %q: %+v", id, events)
	}
}

func TestDebugTracesErrorPaths(t *testing.T) {
	ts, _, _ := newDurableServer(t)
	for _, path := range []string{
		"/debug/traces?min=notaduration",
		"/debug/traces?min=-5s",
		"/debug/traces?limit=banana",
		"/debug/traces?limit=-1",
	} {
		var e errorBody
		if code := do(t, ts, "GET", path, "", nil, &e); code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", path, code)
		} else if e.Error == "" {
			t.Errorf("%s: empty error body", path)
		}
	}
	// Valid params still work with no matching traces.
	var out dbgBody
	if code := do(t, ts, "GET", "/debug/traces?op=nosuchop&min=1h&limit=3", "", nil, &out); code != 200 {
		t.Errorf("valid filter = %d", code)
	}
	if out.Count != 0 {
		t.Errorf("expected no matches, got %d", out.Count)
	}
}

// TestTracedErrorRequests: a denied request still finishes its trace with
// the HTTP status recorded as the trace error.
func TestTracedErrorRequests(t *testing.T) {
	ts, _, tracer := newDurableServer(t)
	if code := do(t, ts, "GET", "/records/absent", "dr-house", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing record = %d", code)
	}
	traces := tracer.Snapshot(obs.TraceFilter{Op: "GET /records/{id}"})
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	if traces[0].Err != "HTTP 404" {
		t.Errorf("trace error = %q, want HTTP 404", traces[0].Err)
	}
}

func TestHealthzReportsVaultState(t *testing.T) {
	ts, v, _ := newDurableServer(t)
	var h healthPayload
	if code := do(t, ts, "GET", "/healthz", "", nil, &h); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if h.Status != "ok" || h.WALWedged {
		t.Errorf("healthy durable vault reported %+v", h)
	}

	// A closed vault answers 503 so load balancers stop routing to it.
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if code := do(t, ts, "GET", "/healthz", "", nil, &h); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz on closed vault = %d, want 503", code)
	}
	if h.Status != "closed" {
		t.Errorf("status = %q, want closed", h.Status)
	}
}
