package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/obs"
	"medvault/internal/vcrypto"
)

// newFlightServer builds a server around a vault whose flight ring is
// private to the test, so concurrent packages sharing obs.DefaultFlight
// cannot pollute assertions, and the vault, which names record tokens.
func newFlightServer(t *testing.T) (*httptest.Server, *core.Cluster) {
	t.Helper()
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewFlight(128)
	v, err := core.Open(core.Config{
		Name: "flight-test", Master: master,
		Clock: clock.NewVirtual(epoch), Flight: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	provisionPersonas(t, v)
	ts := httptest.NewServer(New(v, WithFlight(ring)))
	t.Cleanup(ts.Close)
	return ts, v
}

func TestDebugFlightServesRing(t *testing.T) {
	ts, v := newFlightServer(t)

	rec := sampleRecord("flight-rec-1")
	if code := do(t, ts, "POST", "/records", "dr-house", rec, nil); code != http.StatusCreated {
		t.Fatalf("put: HTTP %d", code)
	}
	var got recordPayload
	if code := do(t, ts, "GET", "/records/flight-rec-1", "dr-house", nil, &got); code != http.StatusOK {
		t.Fatalf("get: HTTP %d", code)
	}

	var body flightBody
	if code := do(t, ts, "GET", "/debug/flight", "", nil, &body); code != http.StatusOK {
		t.Fatalf("flight: HTTP %d", code)
	}
	if body.Retained == 0 || body.Count == 0 {
		t.Fatalf("flight ring empty after operations: %+v", body)
	}
	wantHash := v.RecordToken("flight-rec-1")
	var sawPut, sawGet bool
	for _, ev := range body.Events {
		if strings.Contains(ev.Detail, "Visit note") || strings.Contains(ev.Record, "flight-rec-1") {
			t.Fatalf("flight event leaks record content or raw ID: %+v", ev)
		}
		if ev.Kind == "put" && ev.Record == wantHash && ev.Outcome == "ok" {
			sawPut = true
			if ev.Trace == "" {
				t.Fatal("put flight event has no trace ID despite traced HTTP route")
			}
		}
		if ev.Kind == "get" && ev.Record == wantHash {
			sawGet = true
		}
	}
	if !sawPut || !sawGet {
		t.Fatalf("missing expected events (put=%v get=%v): %+v", sawPut, sawGet, body.Events)
	}

	// The op filter narrows to matching kinds only.
	if code := do(t, ts, "GET", "/debug/flight?op=put", "", nil, &body); code != http.StatusOK {
		t.Fatalf("filtered flight: HTTP %d", code)
	}
	for _, ev := range body.Events {
		if ev.Kind != "put" {
			t.Fatalf("op=put filter returned kind %q", ev.Kind)
		}
	}

	// A bogus limit is a client error, not a panic or a silent default.
	if code := do(t, ts, "GET", "/debug/flight?limit=banana", "", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit: HTTP %d, want 400", code)
	}
}

// panicAPI wedges a panic into one route so the barrier can be exercised
// through the real middleware stack.
type panicAPI struct {
	core.API
}

func (panicAPI) Health() core.HealthStatus { panic("deliberate test panic") }

func TestPanicBarrierAnswers500AndRecordsEvent(t *testing.T) {
	_, v := newRawServer(t)
	ring := obs.NewFlight(16)
	var hooked []string
	ts := httptest.NewServer(New(panicAPI{v}, WithFlight(ring),
		WithPanicHook(func(reason string) { hooked = append(hooked, reason) })))
	defer ts.Close()

	var errBody errorBody
	if code := do(t, ts, "GET", "/healthz", "", nil, &errBody); code != http.StatusInternalServerError {
		t.Fatalf("panicking route: HTTP %d, want 500", code)
	}
	if errBody.Error == "" {
		t.Fatal("500 carried no error body")
	}
	evs := ring.Snapshot(obs.FlightFilter{Kind: "http.panic"})
	if len(evs) != 1 {
		t.Fatalf("flight has %d http.panic events, want 1", len(evs))
	}
	if !strings.Contains(evs[0].Detail, "GET /healthz") ||
		!strings.Contains(evs[0].Detail, "deliberate test panic") {
		t.Fatalf("panic event detail %q missing route or value", evs[0].Detail)
	}
	if len(hooked) != 1 || !strings.Contains(hooked[0], "deliberate test panic") {
		t.Fatalf("panic hook calls = %v, want one with the panic value", hooked)
	}

	// The server survives: the next request on a healthy route still works.
	rec := sampleRecord("post-panic-rec")
	if code := do(t, ts, "POST", "/records", "dr-house", rec, nil); code != http.StatusCreated {
		t.Fatalf("request after panic: HTTP %d", code)
	}
}

func TestHealthzReportsWatchdogAnomalies(t *testing.T) {
	_, v := newRawServer(t)
	reg := obs.NewRegistry()
	wd := obs.NewWatchdog(obs.WatchdogConfig{Registry: reg, Flight: obs.NewFlight(16)})
	ts := httptest.NewServer(New(v, WithWatchdog(wd)))
	defer ts.Close()

	// No anomalies: plain ok, no detail list.
	var h healthPayload
	if code := do(t, ts, "GET", "/healthz", "", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if h.Status != "ok" || len(h.Anomalies) != 0 {
		t.Fatalf("clean node reported %q with anomalies %+v", h.Status, h.Anomalies)
	}

	// Wedge the (private) registry's WAL gauge and tick: the node is still
	// serving (its real vault is fine), so /healthz stays 200 but degrades
	// and explains why.
	reg.Gauge("medvault_wal_wedged", "test").Set(1)
	wd.Tick()
	if code := do(t, ts, "GET", "/healthz", "", nil, &h); code != http.StatusOK {
		t.Fatalf("degraded healthz: HTTP %d, want 200", code)
	}
	if h.Status != "degraded" {
		t.Fatalf("status %q, want degraded", h.Status)
	}
	if len(h.Anomalies) == 0 || h.Anomalies[0].Kind != "wal_wedge" {
		t.Fatalf("anomaly detail missing wal_wedge: %+v", h.Anomalies)
	}
}
