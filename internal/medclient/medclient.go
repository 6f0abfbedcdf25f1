// Package medclient is a typed Go client for the medvaultd REST surface.
//
// It covers every route internal/httpapi serves — records CRUD, versions,
// history, proofs, custody, search, audit, disclosures, retention and legal
// holds, break-glass, verify, healthz, metrics — with expected-status
// assertions baked into every call, in the style of the thorn simulator's
// scenario clients: a call declares the statuses the scenario allows, and
// any other answer is an error carrying the method, path, got/want statuses,
// and the server's error envelope. That makes "the clerk must be denied
// here" a one-line assertion instead of a status check the caller forgets.
//
// Every method returns the HTTP status alongside its result, so a call that
// expects several statuses (say 200 and 403) can branch on which one
// happened. The decoded result is non-zero only for the endpoint's success
// status.
//
// The client is the single wire-format oracle for the httpapi tests and the
// bench/ load generator: it deliberately declares its own request/response
// structs rather than importing the server's, so the httpapi tests (which
// drive this client against a live handler) pin the JSON contract from both
// sides.
package medclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// ActorHeader names the authenticated principal, mirroring the server's
// X-MedVault-Actor contract.
const ActorHeader = "X-MedVault-Actor"

// RequestIDHeader carries the trace ID the server adopts and echoes.
const RequestIDHeader = "X-Request-ID"

// maxResponseBytes bounds how much of a response body the client buffers.
// The largest legitimate responses (audit queries, history) are well under
// this; an endless body is a server bug, not something to OOM over.
const maxResponseBytes = 32 << 20

// StatusError reports a response status outside the expected set.
type StatusError struct {
	Method   string
	Path     string
	Status   int
	Expected []int
	Body     string // response body, truncated; usually {"error": "..."}
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("medclient: %s %s = %d, want %v: %s",
		e.Method, e.Path, e.Status, e.Expected, e.Body)
}

// Envelope decodes the server's error envelope out of the response body.
func (e *StatusError) Envelope() (ErrorEnvelope, bool) {
	var env ErrorEnvelope
	if err := json.Unmarshal([]byte(e.Body), &env); err != nil || env.Error == "" {
		return ErrorEnvelope{}, false
	}
	return env, true
}

// Client calls one medvaultd as one principal. Safe for concurrent use.
// Derive per-actor clients with As — they share the transport, so a fleet
// of scenario actors multiplexes over one connection pool.
type Client struct {
	base  string
	actor string
	hc    *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithActor sets the principal the client acts as. An empty actor sends no
// header — useful for asserting 401s.
func WithActor(actor string) Option {
	return func(c *Client) { c.actor = actor }
}

// WithHTTPClient substitutes the underlying *http.Client (custom TLS,
// timeouts, shared transports).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New builds a client for the vault at base (e.g. "http://127.0.0.1:8600").
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/")}
	for _, o := range opts {
		o(c)
	}
	if c.hc == nil {
		// Sized for load rigs: hundreds of concurrent actors against one
		// host must reuse connections, not exhaust ephemeral ports.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 512
		tr.MaxIdleConnsPerHost = 256
		c.hc = &http.Client{Transport: tr, Timeout: 60 * time.Second}
	}
	return c
}

// As returns a copy of the client acting as a different principal, sharing
// the transport.
func (c *Client) As(actor string) *Client {
	dup := *c
	dup.actor = actor
	return &dup
}

// Actor returns the principal this client acts as.
func (c *Client) Actor() string { return c.actor }

// call performs one round trip. success is the endpoint's natural status;
// expect, when non-empty, overrides the acceptable set (it need not include
// success). out is decoded only when the response status equals success —
// except decodeAll, which decodes any accepted status (healthz serves its
// payload on 503 too).
func (c *Client) call(ctx context.Context, method, path string, in, out any, success int, expect []int, decodeAll bool) (int, error) {
	status, raw, err := c.roundTrip(ctx, method, path, in, success, expect)
	if err != nil {
		return status, err
	}
	if out != nil && (status == success || decodeAll) && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			return status, fmt.Errorf("medclient: decoding %s %s (%d) response: %w", method, path, status, err)
		}
	}
	return status, nil
}

// roundTrip sends one request and returns the status and raw body, or a
// *StatusError when the status is outside the accepted set.
func (c *Client) roundTrip(ctx context.Context, method, path string, in any, success int, expect []int) (int, []byte, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, nil, fmt.Errorf("medclient: encoding %s %s body: %w", method, path, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, nil, fmt.Errorf("medclient: building %s %s: %w", method, path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.actor != "" {
		req.Header.Set(ActorHeader, c.actor)
	}

	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("medclient: reading %s %s response: %w", method, path, err)
	}

	accepted := expect
	if len(accepted) == 0 {
		accepted = []int{success}
	}
	if !statusIn(resp.StatusCode, accepted) {
		return resp.StatusCode, nil, &StatusError{
			Method: method, Path: path, Status: resp.StatusCode,
			Expected: accepted, Body: truncate(string(raw), 512),
		}
	}
	return resp.StatusCode, raw, nil
}

func statusIn(code int, set []int) bool {
	for _, s := range set {
		if code == s {
			return true
		}
	}
	return false
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// esc path-escapes one path segment. Record IDs may contain slashes
// ("mrn-1/enc-0"); they must travel as one segment.
func esc(s string) string { return url.PathEscape(s) }

// --- records CRUD ---

// CreateRecord POSTs /records. Success: 201.
func (c *Client) CreateRecord(ctx context.Context, rec Record, expect ...int) (Record, int, error) {
	var out Record
	status, err := c.call(ctx, "POST", "/records", rec, &out, http.StatusCreated, expect, false)
	return out, status, err
}

// GetRecord GETs /records/{id}. Success: 200.
func (c *Client) GetRecord(ctx context.Context, id string, expect ...int) (Record, int, error) {
	var out Record
	status, err := c.call(ctx, "GET", "/records/"+esc(id), nil, &out, http.StatusOK, expect, false)
	return out, status, err
}

// GetVersion GETs /records/{id}/versions/{n}. Success: 200.
func (c *Client) GetVersion(ctx context.Context, id string, n uint64, expect ...int) (Record, int, error) {
	var out Record
	path := "/records/" + esc(id) + "/versions/" + strconv.FormatUint(n, 10)
	status, err := c.call(ctx, "GET", path, nil, &out, http.StatusOK, expect, false)
	return out, status, err
}

// History GETs /records/{id}/history. Success: 200.
func (c *Client) History(ctx context.Context, id string, expect ...int) ([]VersionInfo, int, error) {
	var out []VersionInfo
	status, err := c.call(ctx, "GET", "/records/"+esc(id)+"/history", nil, &out, http.StatusOK, expect, false)
	return out, status, err
}

// Correct POSTs /records/{id}/corrections. Success: 200.
func (c *Client) Correct(ctx context.Context, id string, rec Record, expect ...int) (Record, int, error) {
	var out Record
	path := "/records/" + esc(id) + "/corrections"
	status, err := c.call(ctx, "POST", path, rec, &out, http.StatusOK, expect, false)
	return out, status, err
}

// Shred DELETEs /records/{id}. Success: 200.
func (c *Client) Shred(ctx context.Context, id string, expect ...int) (int, error) {
	return c.call(ctx, "DELETE", "/records/"+esc(id), nil, nil, http.StatusOK, expect, false)
}

// --- search, audit, provenance, proofs ---

// Search GETs /search; several terms form a conjunctive (AND) query.
// Success: 200.
func (c *Client) Search(ctx context.Context, terms []string, expect ...int) (IDList, int, error) {
	q := url.Values{}
	for _, t := range terms {
		q.Add("q", t)
	}
	var out IDList
	status, err := c.call(ctx, "GET", "/search?"+q.Encode(), nil, &out, http.StatusOK, expect, false)
	return out, status, err
}

// Audit GETs /audit with the query's filters. Success: 200.
func (c *Client) Audit(ctx context.Context, query AuditQuery, expect ...int) ([]AuditEvent, int, error) {
	q := url.Values{}
	if query.Record != "" {
		q.Set("record", query.Record)
	}
	if query.Actor != "" {
		q.Set("actor", query.Actor)
	}
	if query.DeniedOnly {
		q.Set("denied", "true")
	}
	path := "/audit"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out []AuditEvent
	status, err := c.call(ctx, "GET", path, nil, &out, http.StatusOK, expect, false)
	return out, status, err
}

// Custody GETs /records/{id}/custody. Success: 200.
func (c *Client) Custody(ctx context.Context, id string, expect ...int) ([]CustodyEvent, int, error) {
	var out []CustodyEvent
	status, err := c.call(ctx, "GET", "/records/"+esc(id)+"/custody", nil, &out, http.StatusOK, expect, false)
	return out, status, err
}

// Proof GETs /records/{id}/versions/{n}/proof. Success: 200.
func (c *Client) Proof(ctx context.Context, id string, n uint64, expect ...int) (Proof, int, error) {
	var out Proof
	path := "/records/" + esc(id) + "/versions/" + strconv.FormatUint(n, 10) + "/proof"
	status, err := c.call(ctx, "GET", path, nil, &out, http.StatusOK, expect, false)
	return out, status, err
}

// Verify POSTs /verify (a full integrity sweep). Success: 200; an
// integrity failure answers 409.
func (c *Client) Verify(ctx context.Context, expect ...int) (VerifyResult, int, error) {
	var out VerifyResult
	status, err := c.call(ctx, "POST", "/verify", nil, &out, http.StatusOK, expect, false)
	return out, status, err
}

// --- break-glass, patients ---

// BreakGlass POSTs /breakglass, requesting a time-boxed emergency grant for
// the client's actor. Success: 200.
func (c *Client) BreakGlass(ctx context.Context, reason string, minutes int, expect ...int) (int, error) {
	body := map[string]any{"reason": reason, "minutes": minutes}
	return c.call(ctx, "POST", "/breakglass", body, nil, http.StatusOK, expect, false)
}

// PatientRecords GETs /patients/{mrn}/records. Success: 200.
func (c *Client) PatientRecords(ctx context.Context, mrn string, expect ...int) (IDList, int, error) {
	var out IDList
	status, err := c.call(ctx, "GET", "/patients/"+esc(mrn)+"/records", nil, &out, http.StatusOK, expect, false)
	return out, status, err
}

// Disclosures GETs /patients/{mrn}/disclosures — the HIPAA accounting of
// disclosures. Success: 200.
func (c *Client) Disclosures(ctx context.Context, mrn string, expect ...int) ([]Disclosure, int, error) {
	var out []Disclosure
	status, err := c.call(ctx, "GET", "/patients/"+esc(mrn)+"/disclosures", nil, &out, http.StatusOK, expect, false)
	return out, status, err
}

// --- retention and holds ---

// ExpiredRecords GETs /retention/expired. Success: 200.
func (c *Client) ExpiredRecords(ctx context.Context, expect ...int) (IDList, int, error) {
	var out IDList
	status, err := c.call(ctx, "GET", "/retention/expired", nil, &out, http.StatusOK, expect, false)
	return out, status, err
}

// Holds GETs /retention/holds. Success: 200.
func (c *Client) Holds(ctx context.Context, expect ...int) ([]Hold, int, error) {
	var out []Hold
	status, err := c.call(ctx, "GET", "/retention/holds", nil, &out, http.StatusOK, expect, false)
	return out, status, err
}

// PlaceHold PUTs /records/{id}/hold. Success: 200.
func (c *Client) PlaceHold(ctx context.Context, id, reason string, expect ...int) (int, error) {
	body := map[string]string{"reason": reason}
	return c.call(ctx, "PUT", "/records/"+esc(id)+"/hold", body, nil, http.StatusOK, expect, false)
}

// ReleaseHold DELETEs /records/{id}/hold. Success: 200.
func (c *Client) ReleaseHold(ctx context.Context, id string, expect ...int) (int, error) {
	return c.call(ctx, "DELETE", "/records/"+esc(id)+"/hold", nil, nil, http.StatusOK, expect, false)
}

// --- liveness and observability ---

// Healthz GETs /healthz. Success: 200; a closed or wedged node answers 503
// with the same payload shape, which is decoded too when expected.
func (c *Client) Healthz(ctx context.Context, expect ...int) (Health, int, error) {
	var out Health
	status, err := c.call(ctx, "GET", "/healthz", nil, &out, http.StatusOK, expect, true)
	return out, status, err
}

// Metrics GETs /metrics and returns the raw Prometheus text. Success: 200.
func (c *Client) Metrics(ctx context.Context) (string, int, error) {
	status, raw, err := c.roundTrip(ctx, "GET", "/metrics", nil, http.StatusOK, nil)
	return string(raw), status, err
}

// Raw sends an arbitrary body to an arbitrary path as the client's actor,
// bypassing the typed encoders. The edge tests use it to probe the server
// with malformed and oversized payloads; the caller owns the response.
func (c *Client) Raw(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.actor != "" {
		req.Header.Set(ActorHeader, c.actor)
	}
	return c.hc.Do(req)
}
