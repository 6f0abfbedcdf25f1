package httpapi

// Regression tests for the 503 + Retry-After contract: a node that cannot
// durably commit (wedged WAL) or is draining (closed vault) must answer 503
// with a Retry-After header — on /healthz and on the rejected operations
// themselves — so load balancers and clients back off instead of treating a
// recoverable outage as a client error.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/vcrypto"
)

// outageRoutes is one request per vault route family, well-formed enough to
// reach the vault. On a closed or wedged vault every one of them must answer
// 503 + Retry-After with the plain error envelope — never a route-specific
// client error (POST /breakglass used to say 400) and never a false tamper
// alarm (POST /verify used to say 409 INTEGRITY FAILURE).
var outageRoutes = []struct{ method, path, actor, body string }{
	{"POST", "/records", "dr-house", `{"id":"p1","patient":"Ada","mrn":"mrn-1","category":"clinical","title":"t","body":"b"}`},
	{"GET", "/records/p1", "dr-house", ""},
	{"GET", "/records/p1/versions/1", "dr-house", ""},
	{"GET", "/records/p1/history", "dr-house", ""},
	{"POST", "/records/p1/corrections", "dr-house", `{"patient":"Ada","mrn":"mrn-1","category":"clinical","title":"t","body":"b"}`},
	{"DELETE", "/records/p1", "arch-lee", ""},
	{"GET", "/search?q=x", "dr-house", ""},
	{"GET", "/audit", "officer-kim", ""},
	{"GET", "/records/p1/custody", "officer-kim", ""},
	{"GET", "/patients/mrn-1/records", "dr-house", ""},
	{"GET", "/patients/mrn-1/disclosures", "officer-kim", ""},
	{"GET", "/records/p1/versions/1/proof", "dr-house", ""},
	{"PUT", "/records/p1/hold", "arch-lee", `{"reason":"litigation"}`},
	{"DELETE", "/records/p1/hold", "arch-lee", ""},
	{"GET", "/retention/expired", "arch-lee", ""},
	{"GET", "/retention/holds", "arch-lee", ""},
	{"POST", "/breakglass", "clerk-bob", `{"reason":"code blue","minutes":5}`},
	{"POST", "/verify", "officer-kim", ""},
}

// TestOutageRoutesCoverEveryVaultRoute: a route added to vaultRoutes without
// a request here would skip the outage checks below.
func TestOutageRoutesCoverEveryVaultRoute(t *testing.T) {
	s := New(nil)
	covered := map[string]bool{}
	for _, rt := range outageRoutes {
		_, pattern := s.mux.Handler(httptest.NewRequest(rt.method, rt.path, nil))
		covered[pattern] = true
	}
	for _, rt := range vaultRoutes {
		if !covered[rt.pattern] {
			t.Errorf("vault route %q has no request in outageRoutes", rt.pattern)
		}
	}
}

// expectOutage sends one request and requires 503, Retry-After, and the
// plain {"error": ...} envelope.
func expectOutage(t *testing.T, url, method, path, actor, body string) {
	t.Helper()
	req, err := http.NewRequest(method, url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(actorHeader, actor)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&env)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("%s %s = %d %v, want 503", method, path, resp.StatusCode, env)
		return
	}
	if ra := resp.Header.Get("Retry-After"); ra != retryAfterSeconds {
		t.Errorf("%s %s Retry-After = %q, want %q", method, path, ra, retryAfterSeconds)
	}
	if env["error"] == nil || env["status"] != nil {
		t.Errorf("%s %s outage body = %v, want the plain error envelope", method, path, env)
	}
}

// wedgedAPI simulates a vault whose WAL wedged mid-flight: durable
// mutations fail with an ErrWedged chain and Health reports the wedge.
type wedgedAPI struct {
	core.API
}

func (w wedgedAPI) PutCtx(ctx context.Context, actor string, rec ehr.Record) (core.Version, error) {
	return core.Version{}, fmt.Errorf("core: logging %s v1: %w: fsync failed", rec.ID, core.ErrWedged)
}

func (w wedgedAPI) BreakGlassCtx(context.Context, string, string, time.Duration) error {
	return fmt.Errorf("audit: appending grant: %w", core.ErrWedged)
}

func (w wedgedAPI) VerifyCtx(context.Context, string) (core.Report, error) {
	return core.Report{}, fmt.Errorf("shard 1: %w", core.ErrWedged)
}

func (w wedgedAPI) Health() core.HealthStatus {
	h := w.API.Health()
	h.WALWedged = true
	h.WALWedgeError = "wal: syncing batch: fsync failed"
	return h
}

func TestWedgedVaultRejectionsCarryRetryAfter(t *testing.T) {
	ts, v := newRawServer(t)
	ts.Close()
	wedged := httptest.NewServer(New(wedgedAPI{API: v}))
	defer wedged.Close()

	// The rejected operations — the write, and the two routes with an error
	// mapping of their own: 503, Retry-After, error envelope.
	for _, rt := range outageRoutes {
		switch rt.path {
		case "/records", "/breakglass", "/verify":
			expectOutage(t, wedged.URL, rt.method, rt.path, rt.actor, rt.body)
		}
	}

	// The health probe: same status, same header, honest state.
	resp, err := http.Get(wedged.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wedged healthz = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != retryAfterSeconds {
		t.Errorf("wedged healthz Retry-After = %q, want %q", ra, retryAfterSeconds)
	}
}

// TestAuditWedgeAnswers503: a checkpoint (here SanitizeMedia) whose copy of
// the audit events to audit/ fails wedges the shard's audit log, since the
// store may hold part of the copy. From then on /healthz answers 503
// audit-wedged and every audited request answers 503 with Retry-After,
// instead of serving on with a gap in the audit trail. (An audit event that
// fails to reach meta.wal wedges the WAL, which /healthz reports first.)
func TestAuditWedgeAnswers503(t *testing.T) {
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	fsys := faultfs.NewFaulty(faultfs.NewMem(), func(op faultfs.Op) *faultfs.Fault {
		if op.Kind == faultfs.OpWrite && strings.Contains(op.Path, "/audit/") && armed.CompareAndSwap(true, false) {
			return &faultfs.Fault{Err: faultfs.ErrNoSpace}
		}
		return nil
	})
	v, err := core.Open(core.Config{Name: "api-test", Master: master, Clock: clock.NewVirtual(epoch), Dir: "vault", FS: fsys})
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
	if code := do(t, ts, "GET", "/records/ghost", "dr-house", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET /records/ghost = %d, want 404", code)
	}
	armed.Store(true)
	if _, _, err := v.SanitizeMedia("arch-lee"); !errors.Is(err, faultfs.ErrNoSpace) {
		t.Fatalf("SanitizeMedia with a failing audit copy = %v, want ErrNoSpace", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthPayload
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "audit-wedged" || !h.AuditWedged {
		t.Errorf("healthz after a lost audit event = %d %+v, want 503 audit-wedged", resp.StatusCode, h)
	}
	if ra := resp.Header.Get("Retry-After"); ra != retryAfterSeconds {
		t.Errorf("audit-wedged healthz Retry-After = %q, want %q", ra, retryAfterSeconds)
	}
	// Every route that records an access decision answers the outage. The
	// patient and retention listings record none.
	unaudited := map[string]bool{"/patients/mrn-1/records": true, "/retention/expired": true, "/retention/holds": true}
	for _, rt := range outageRoutes {
		if !unaudited[rt.path] {
			expectOutage(t, ts.URL, rt.method, rt.path, rt.actor, rt.body)
		}
	}
}

func TestClosedVaultAnswers503WithRetryAfter(t *testing.T) {
	ts, v := newRawServer(t)
	defer ts.Close()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// Operations on a draining/closed vault are 503 on every route, not 500
	// or a client error: the request was fine, the node is going away.
	for _, rt := range outageRoutes {
		expectOutage(t, ts.URL, rt.method, rt.path, rt.actor, rt.body)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed healthz = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != retryAfterSeconds {
		t.Errorf("closed healthz Retry-After = %q, want %q", ra, retryAfterSeconds)
	}
}
