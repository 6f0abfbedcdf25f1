// Package httpapi exposes a vault over HTTP/JSON for cmd/medvaultd.
//
// Every request acts as the principal named in the X-MedVault-Actor header;
// there is deliberately no anonymous access — HIPAA requires attributable
// access, and the vault audits every decision. (Production deployments
// would put real authentication in front; the header models the
// authenticated identity the same way the CLI's -actor flag does.)
//
// The handler holds no lock of its own: net/http serves each request on its
// own goroutine, and the vault's striped locking (DESIGN.md "Concurrency
// model") lets requests touching different records proceed in parallel —
// only same-record writes and whole-vault sweeps serialize.
//
// Routes:
//
//	GET    /healthz                      liveness
//	GET    /metrics                      Prometheus text-format metrics
//	POST   /records                      create (body: record JSON)
//	GET    /records/{id}                 latest version
//	GET    /records/{id}/versions/{n}    specific version
//	GET    /records/{id}/history         version metadata
//	POST   /records/{id}/corrections     amend (body: record JSON)
//	DELETE /records/{id}                 secure deletion (post-retention)
//	GET    /search?q=keyword             authorized search
//	GET    /audit?record=&actor=&denied= audit query
//	GET    /records/{id}/custody         provenance chain
//	POST   /verify                       full integrity sweep
//	POST   /breakglass                   {"reason": "...", "minutes": 60}
//	GET    /patients/{mrn}/records       patient's records visible to actor
//	GET    /patients/{mrn}/disclosures   HIPAA accounting of disclosures
//	GET    /records/{id}/versions/{n}/proof  third-party-verifiable commitment proof
//	GET    /retention/expired            records past their retention period
//	GET    /retention/holds              active legal holds
//	PUT    /records/{id}/hold            place a legal hold {"reason": "..."}
//	DELETE /records/{id}/hold            release a legal hold
//	GET    /debug/traces                 retained request traces (op=, min=, limit=)
//	GET    /debug/flight                 live flight-recorder ring (op=, trace=, record=, limit=)
//
// Every vault route runs under a request trace: the middleware honors a
// well-formed X-Request-ID header (or mints an ID), threads the trace
// through the request context so each compliance mechanism records a child
// span, echoes the ID in the X-Request-ID response header, and stamps it
// into every audit entry the request produces. GET /debug/traces retrieves
// retained traces by the same ID.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/obs"
)

// actorHeader names the authenticated principal.
const actorHeader = "X-MedVault-Actor"

// requestIDHeader carries the trace ID: honored on requests (a well-formed
// caller-supplied ID is adopted as the trace ID) and always set on responses,
// so a client can quote the ID back when filing a report and an operator can
// find the exact trace and audit entries it names.
const requestIDHeader = "X-Request-ID"

// Server serves a vault over HTTP.
type Server struct {
	vault     core.API
	mux       *http.ServeMux
	tracer    *obs.Tracer
	flight    *obs.Flight
	watchdog  *obs.Watchdog       // nil: /healthz omits anomaly detail
	panicHook func(reason string) // nil: panics only answer 500 + flight event
	logger    *slog.Logger        // nil disables request logging
}

// Option configures a Server.
type Option func(*Server)

// WithLogger enables structured request logging: one line per request with
// method, route pattern, status, duration, and trace ID. Paths with PHI-
// adjacent parameters are never logged — only the route pattern is.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithTracer overrides the tracer (tests use private tracers; medvaultd and
// the default share obs.DefaultTracer).
func WithTracer(t *obs.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// WithFlight overrides the flight recorder /debug/flight serves (tests use
// private rings; medvaultd and the default share obs.DefaultFlight).
func WithFlight(f *obs.Flight) Option {
	return func(s *Server) { s.flight = f }
}

// WithWatchdog attaches the anomaly watchdog: /healthz gains a detail list
// of currently active anomaly streaks, so a degraded-but-serving node
// explains itself to the probe rather than just flipping to 503 later.
func WithWatchdog(w *obs.Watchdog) Option {
	return func(s *Server) { s.watchdog = w }
}

// WithPanicHook installs a callback fired (once per panic) after a request
// handler panics, in addition to the 500 response and flight event the
// middleware always produces. medvaultd uses it to write a postmortem
// bundle before the process decides whether it can keep serving.
func WithPanicHook(fn func(reason string)) Option {
	return func(s *Server) { s.panicHook = fn }
}

// New builds a Server around v.
func New(v core.API, opts ...Option) *Server {
	s := &Server{vault: v, mux: http.NewServeMux(), tracer: obs.DefaultTracer, flight: obs.DefaultFlight}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	for _, rt := range vaultRoutes {
		s.mux.HandleFunc(rt.pattern, s.asActor(rt.run))
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/traces", TraceHandler(s.tracer))
	s.mux.Handle("GET /debug/flight", FlightHandler(s.flight))
	return s
}

// statusWriter captures the response status for the metrics middleware, and
// whether anything was written — the panic barrier can only substitute a 500
// body when the handler died before producing output.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// ServeHTTP implements http.Handler. Every request — matched or not — is
// measured: request count by route pattern and status class, and latency by
// route. The matched mux pattern (e.g. "GET /records/{id}") is the route
// label, so path parameters never create new series (and record IDs, which
// are PHI-adjacent, never reach the metrics output).
//
// Vault routes also run under a trace: the middleware starts it (adopting a
// well-formed X-Request-ID if the caller sent one), threads it through
// r.Context() so every mechanism the request touches records a child span,
// echoes the ID in the X-Request-ID response header, and finishes the trace
// into the tracer's ring where /debug/traces can retrieve it. Observability
// endpoints (/healthz, /metrics, /debug/*) are not traced — they would bury
// the traces that matter under scrape noise.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	_, route := s.mux.Handler(r)
	if route == "" {
		route = "unmatched"
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	var traceID string
	if traced(route) {
		ctx, tr := s.tracer.Start(r.Context(), route, r.Header.Get(requestIDHeader))
		traceID = tr.ID
		w.Header().Set(requestIDHeader, tr.ID)
		s.serve(sw, r.WithContext(ctx), route, tr.ID)
		var err error
		if sw.status >= 400 {
			err = fmt.Errorf("HTTP %d", sw.status)
		}
		s.tracer.Finish(tr, err)
	} else {
		s.serve(sw, r, route, "")
	}
	obs.Default.Counter("medvault_http_requests_total",
		"HTTP requests by route pattern and status class.",
		obs.L("route", route), obs.L("status", statusClass(sw.status))).Inc()
	obs.Default.Histogram("medvault_http_request_seconds",
		"HTTP request latency by route pattern.", obs.LatencyBuckets,
		obs.L("route", route)).ObserveExemplar(time.Since(start).Seconds(), traceID)
	if s.logger != nil {
		s.logger.Info("http request",
			"method", r.Method,
			"route", route,
			"status", sw.status,
			"duration_ms", float64(time.Since(start).Microseconds())/1000,
			"trace", traceID)
	}
}

// serve dispatches to the mux behind a panic barrier. One bad request must
// not take a node holding patient records off the air, but the panic must
// also never vanish: the barrier answers 500 (when the handler died before
// writing anything), counts the panic, drops an "http.panic" event into the
// flight recorder, and fires the panic hook so medvaultd can write a
// postmortem bundle. http.ErrAbortHandler is re-raised — it is net/http's
// sanctioned way to abort a connection, not a bug.
func (s *Server) serve(sw *statusWriter, r *http.Request, route, traceID string) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel compared by identity, per net/http docs
			panic(rec)
		}
		reason := fmt.Sprintf("panic in %s: %v", route, rec)
		sw.status = http.StatusInternalServerError
		s.flight.Record(obs.FlightEvent{
			Kind: "http.panic", Trace: traceID, Outcome: "panic", Detail: reason,
		})
		obs.Default.Counter("medvault_http_panics_total",
			"Request handler panics recovered by the middleware.",
			obs.L("route", route)).Inc()
		if !sw.wrote {
			writeJSON(sw, http.StatusInternalServerError, errorBody{Error: "internal error"})
		}
		if s.panicHook != nil {
			s.panicHook(reason)
		}
	}()
	s.mux.ServeHTTP(sw, r)
}

// traced reports whether a route runs under a trace. Observability and
// liveness endpoints are exempt: they are scraped constantly and touch no
// compliance mechanism.
func traced(route string) bool {
	return route != "GET /healthz" && route != "GET /metrics" &&
		!strings.HasPrefix(route, "GET /debug/")
}

// statusClass buckets a status code into 2xx/3xx/4xx/5xx.
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// handleMetrics serves the process-wide registry in Prometheus text format.
// Deliberately unauthenticated, like /healthz: the output contains counts
// and latencies only — no identifiers, no PHI.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.TextContentType)
	_ = obs.Default.WritePrometheus(w)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// retryAfterSeconds is the Retry-After value on every 503 this API emits.
// A wedged WAL or a closed vault is an outage, not a client error: load
// balancers and well-behaved clients should back off and re-probe rather
// than hammer a node that cannot durably commit. The value is deliberately
// short — healthz polls are cheap, and a restarted node recovers in seconds.
const retryAfterSeconds = "5"

// statusError is a failure that knows its own HTTP answer: a malformed
// request (400), an oversized body (413), a missing actor (401), a
// role-gated route (403), or a route-specific mapping of a vault error
// (err — it supplies the message, and Unwrap keeps it visible so outage
// sentinels still outrank the mapping). body, when set, replaces the
// default {"error": ...} envelope.
type statusError struct {
	status int
	msg    string // used when err is nil
	body   any
	err    error
}

func (e *statusError) Error() string {
	if e.err != nil {
		return e.err.Error()
	}
	return e.msg
}
func (e *statusError) Unwrap() error { return e.err }

func badRequest(msg string) error { return &statusError{status: http.StatusBadRequest, msg: msg} }

// outcomeStatus answers each core outcome label (core.Outcome). A refusal
// the vault's policy decides — access control, retention, a legal hold — is
// a 4xx like any other verdict on the request; only a node failure ("error")
// or an outage ("closed", "wedged") is a 5xx.
var outcomeStatus = map[string]int{
	"ok":               http.StatusOK,
	"closed":           http.StatusServiceUnavailable,
	"wedged":           http.StatusServiceUnavailable,
	"denied":           http.StatusForbidden,
	"not_found":        http.StatusNotFound,
	"shredded":         http.StatusGone,
	"exists":           http.StatusConflict,
	"identity_changed": http.StatusUnprocessableEntity,
	"tampered":         http.StatusConflict,
	"on_hold":          http.StatusConflict,
	"retention_active": http.StatusConflict,
	"invalid":          http.StatusBadRequest,
	"error":            http.StatusInternalServerError,
}

// writeErr is the one place an error becomes a response. PHI never appears
// in error bodies (core errors carry IDs and reasons, not record content).
//
// Wedged-WAL and closed-vault failures are checked first, on every route and
// under any route-specific wrapping: they are the node's problem, not the
// request's, and answer 503 with a Retry-After so clients retry elsewhere (or
// later) instead of treating a drainable outage as a client error — or, on
// /verify, as tampering. Then a statusError answers for itself, and anything
// else answers its outcome's status. Every 503 carries the Retry-After.
func writeErr(w http.ResponseWriter, err error) {
	status := outcomeStatus[core.Outcome(err)]
	var body any = errorBody{Error: err.Error()}
	var se *statusError
	if status != http.StatusServiceUnavailable && errors.As(err, &se) {
		status = se.status
		if se.body != nil {
			body = se.body
		}
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// maxBodyBytes caps request bodies. Records are prose plus a few codes; a
// body this large is an attack or a bug, and an unbounded decoder would
// otherwise buffer whatever a client streams at it.
const maxBodyBytes = 1 << 20

// decodeJSON decodes the (size-limited, see asActor) JSON body: 413 for an
// oversized body, 400 for malformed JSON.
func decodeJSON(r *http.Request, v any) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &statusError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return badRequest("invalid JSON: " + err.Error())
	}
	return nil
}

// vaultRoute is one vault endpoint's logic. It runs as the authenticated
// actor and returns the success status and JSON body, or an error for
// writeErr (status and body are then ignored) — it never touches the
// ResponseWriter, so no route can invent its own error mapping.
type vaultRoute func(s *Server, r *http.Request, actor string) (status int, body any, err error)

// vaultRoutes is every route that acts on the vault.
var vaultRoutes = []struct {
	pattern string
	run     vaultRoute
}{
	{"POST /records", (*Server).create},
	{"GET /records/{id}", (*Server).get},
	{"GET /records/{id}/versions/{n}", (*Server).getVersion},
	{"GET /records/{id}/history", (*Server).history},
	{"POST /records/{id}/corrections", (*Server).correct},
	{"DELETE /records/{id}", (*Server).shred},
	{"GET /search", (*Server).search},
	{"GET /audit", (*Server).audit},
	{"GET /records/{id}/custody", (*Server).custody},
	{"POST /verify", (*Server).verify},
	{"POST /breakglass", (*Server).breakGlass},
	{"GET /patients/{mrn}/records", (*Server).patientRecords},
	{"GET /patients/{mrn}/disclosures", (*Server).disclosures},
	{"GET /records/{id}/versions/{n}/proof", (*Server).proof},
	{"GET /retention/expired", (*Server).expired},
	{"GET /retention/holds", (*Server).listHolds},
	{"PUT /records/{id}/hold", (*Server).placeHold},
	{"DELETE /records/{id}/hold", (*Server).releaseHold},
}

// asActor is the one wrapper every vault route runs under: it demands the
// authenticated principal (there is no anonymous access), caps the body,
// runs the route, and sends either its answer or — through writeErr, and
// nowhere else — its error.
func (s *Server) asActor(run vaultRoute) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		actor := r.Header.Get(actorHeader)
		if actor == "" {
			writeErr(w, &statusError{status: http.StatusUnauthorized, msg: "missing " + actorHeader + " header"})
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		status, body, err := run(s, r, actor)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, status, body)
	}
}

// recordPayload is the JSON shape of a record in requests and responses.
type recordPayload struct {
	ID        string    `json:"id"`
	Patient   string    `json:"patient"`
	MRN       string    `json:"mrn"`
	Category  string    `json:"category"`
	Author    string    `json:"author,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	Title     string    `json:"title"`
	Body      string    `json:"body"`
	Codes     []string  `json:"codes,omitempty"`
	Version   uint64    `json:"version,omitempty"`
}

func fromRecord(rec ehr.Record, ver core.Version) recordPayload {
	return recordPayload{
		ID: rec.ID, Patient: rec.Patient, MRN: rec.MRN,
		Category: string(rec.Category), Author: rec.Author,
		CreatedAt: rec.CreatedAt, Title: rec.Title, Body: rec.Body,
		Codes: rec.Codes, Version: ver.Number,
	}
}

// decodeRecord reads a record body for create and correct (id, when set,
// is the path's record ID and overrides the body's), defaulting the author
// to the actor and the creation time to now. The vault validates it: a
// missing MRN or bogus category answers 400 through its outcome, "invalid".
func decodeRecord(r *http.Request, actor, id string) (ehr.Record, error) {
	var p recordPayload
	if err := decodeJSON(r, &p); err != nil {
		return ehr.Record{}, err
	}
	if id != "" {
		p.ID = id
	}
	rec := ehr.Record{
		ID: p.ID, Patient: p.Patient, MRN: p.MRN,
		Category: ehr.Category(p.Category), Author: p.Author,
		CreatedAt: p.CreatedAt, Title: p.Title, Body: p.Body, Codes: p.Codes,
	}
	if rec.Author == "" {
		rec.Author = actor
	}
	if rec.CreatedAt.IsZero() {
		rec.CreatedAt = time.Now().UTC()
	}
	return rec, nil
}

// versionParam parses the {n} path segment.
func versionParam(r *http.Request) (uint64, error) {
	n, err := strconv.ParseUint(r.PathValue("n"), 10, 64)
	if err != nil {
		return 0, badRequest("version must be a positive integer")
	}
	return n, nil
}

// idList is the body of every route that answers with record IDs.
func idList(ids []string) map[string]any {
	return map[string]any{"ids": ids, "count": len(ids)}
}

// healthPayload is the /healthz body: real vault state, not a static "ok".
// A wedged WAL or a closed vault answers 503 so load balancers stop routing
// writes to a node that cannot durably commit them.
type healthPayload struct {
	Status        string               `json:"status"`
	System        string               `json:"system"`
	Records       int                  `json:"records"`
	WALWedged     bool                 `json:"wal_wedged"`
	WALWedgeError string               `json:"wal_wedge_error,omitempty"`
	WALQueueDepth int                  `json:"wal_queue_depth"`
	InFlightOps   int                  `json:"in_flight_ops"`
	LastRecovery  recoveryPayload      `json:"last_recovery"`
	Shards        []shardHealthPayload `json:"shards,omitempty"`    // >1-shard vaults only
	Anomalies     []anomalyPayload     `json:"anomalies,omitempty"` // watchdog-attached nodes only
}

// anomalyPayload is one active watchdog finding surfaced on /healthz, so a
// probe (or a human curling the endpoint) sees why a node is degraded
// without shelling in. Detail is PHI-free by the watchdog's contract.
type anomalyPayload struct {
	Kind   string    `json:"kind"`
	Detail string    `json:"detail"`
	Since  time.Time `json:"since"`
}

// shardHealthPayload is one shard's slice of the merged health report, so
// an operator can see which shard is wedged without shelling into the node.
type shardHealthPayload struct {
	Shard         int    `json:"shard"`
	Open          bool   `json:"open"`
	Records       int    `json:"records"`
	WALWedged     bool   `json:"wal_wedged"`
	WALWedgeError string `json:"wal_wedge_error,omitempty"`
	WALQueueDepth int    `json:"wal_queue_depth"`
}

type recoveryPayload struct {
	SnapshotLoaded bool `json:"snapshot_loaded"`
	WALEntries     int  `json:"wal_entries_replayed"`
	RecordsLive    int  `json:"records_recovered"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.vault.Health()
	status, state := http.StatusOK, "ok"
	switch {
	case !h.Open:
		status, state = http.StatusServiceUnavailable, "closed"
	case h.WALWedged:
		status, state = http.StatusServiceUnavailable, "wal-wedged"
	}
	var anomalies []anomalyPayload
	if s.watchdog != nil {
		for _, a := range s.watchdog.Anomalies() {
			anomalies = append(anomalies, anomalyPayload{Kind: a.Kind, Detail: a.Detail, Since: a.Since})
		}
		// Active anomalies on an otherwise-healthy node degrade the status
		// string but keep the 200: the node is still serving, and flapping
		// it out of the load balancer over a transient stall would turn a
		// slow node into an unavailable one.
		if state == "ok" && len(anomalies) > 0 {
			state = "degraded"
		}
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	payload := healthPayload{
		Status:        state,
		System:        s.vault.Name(),
		Records:       h.LiveRecords,
		WALWedged:     h.WALWedged,
		WALWedgeError: h.WALWedgeError,
		WALQueueDepth: h.WALQueueDepth,
		InFlightOps:   h.InFlightOps,
		LastRecovery: recoveryPayload{
			SnapshotLoaded: h.LastRecovery.SnapshotLoaded,
			WALEntries:     h.LastRecovery.WALEntries,
			RecordsLive:    h.LastRecovery.RecordsLive,
		},
		Anomalies: anomalies,
	}
	for i, hs := range h.Shards {
		payload.Shards = append(payload.Shards, shardHealthPayload{
			Shard:         i,
			Open:          hs.Open,
			Records:       hs.LiveRecords,
			WALWedged:     hs.WALWedged,
			WALWedgeError: hs.WALWedgeError,
			WALQueueDepth: hs.WALQueueDepth,
		})
	}
	writeJSON(w, status, payload)
}

func (s *Server) create(r *http.Request, actor string) (int, any, error) {
	rec, err := decodeRecord(r, actor, "")
	if err != nil {
		return 0, nil, err
	}
	ver, err := s.vault.PutCtx(r.Context(), actor, rec)
	return http.StatusCreated, fromRecord(rec, ver), err
}

func (s *Server) get(r *http.Request, actor string) (int, any, error) {
	rec, ver, err := s.vault.GetCtx(r.Context(), actor, r.PathValue("id"))
	return http.StatusOK, fromRecord(rec, ver), err
}

func (s *Server) getVersion(r *http.Request, actor string) (int, any, error) {
	n, err := versionParam(r)
	if err != nil {
		return 0, nil, err
	}
	rec, ver, err := s.vault.GetVersionCtx(r.Context(), actor, r.PathValue("id"), n)
	return http.StatusOK, fromRecord(rec, ver), err
}

type versionPayload struct {
	Number    uint64    `json:"number"`
	Author    string    `json:"author"`
	Timestamp time.Time `json:"timestamp"`
	CtHash    string    `json:"ciphertext_sha256"`
	LeafIndex uint64    `json:"commitment_leaf"`
}

func (s *Server) history(r *http.Request, actor string) (int, any, error) {
	hist, err := s.vault.HistoryCtx(r.Context(), actor, r.PathValue("id"))
	out := make([]versionPayload, len(hist))
	for i, v := range hist {
		out[i] = versionPayload{
			Number: v.Number, Author: v.Author, Timestamp: v.Timestamp,
			CtHash: fmt.Sprintf("%x", v.CtHash), LeafIndex: v.LeafIndex,
		}
	}
	return http.StatusOK, out, err
}

func (s *Server) correct(r *http.Request, actor string) (int, any, error) {
	rec, err := decodeRecord(r, actor, r.PathValue("id"))
	if err != nil {
		return 0, nil, err
	}
	ver, err := s.vault.CorrectCtx(r.Context(), actor, rec)
	return http.StatusOK, fromRecord(rec, ver), err
}

func (s *Server) shred(r *http.Request, actor string) (int, any, error) {
	id := r.PathValue("id")
	err := s.vault.ShredCtx(r.Context(), actor, id)
	return http.StatusOK, map[string]string{"status": "shredded", "id": id}, err
}

func (s *Server) search(r *http.Request, actor string) (int, any, error) {
	qs := r.URL.Query()["q"]
	if len(qs) == 0 {
		return 0, nil, badRequest("missing q parameter")
	}
	// Multiple q parameters form a conjunctive (AND) query.
	var ids []string
	var err error
	if len(qs) == 1 {
		ids, err = s.vault.SearchCtx(r.Context(), actor, qs[0])
	} else {
		ids, err = s.vault.SearchAllCtx(r.Context(), actor, qs...)
	}
	return http.StatusOK, idList(ids), err
}

type auditEventPayload struct {
	Seq       uint64    `json:"seq"`
	Timestamp time.Time `json:"timestamp"`
	Actor     string    `json:"actor"`
	Action    string    `json:"action"`
	Record    string    `json:"record,omitempty"`
	Version   uint64    `json:"version,omitempty"`
	Outcome   string    `json:"outcome"`
	Detail    string    `json:"detail,omitempty"`
	Trace     string    `json:"trace,omitempty"`
}

func (s *Server) audit(r *http.Request, actor string) (int, any, error) {
	q := audit.Query{
		Record:     r.URL.Query().Get("record"),
		Actor:      r.URL.Query().Get("actor"),
		DeniedOnly: r.URL.Query().Get("denied") == "true",
	}
	events, err := s.vault.AuditEventsCtx(r.Context(), actor, q)
	out := make([]auditEventPayload, len(events))
	for i, e := range events {
		out[i] = auditEventPayload{
			Seq: e.Seq, Timestamp: e.Timestamp, Actor: e.Actor,
			Action: string(e.Action), Record: e.Record, Version: e.Version,
			Outcome: string(e.Outcome), Detail: e.Detail, Trace: e.Trace,
		}
	}
	return http.StatusOK, out, err
}

type custodyPayload struct {
	Index     uint64    `json:"index"`
	Type      string    `json:"type"`
	Timestamp time.Time `json:"timestamp"`
	Actor     string    `json:"actor"`
	System    string    `json:"system"`
	Peer      string    `json:"peer,omitempty"`
}

func (s *Server) custody(r *http.Request, actor string) (int, any, error) {
	chain, err := s.vault.ProvenanceCtx(r.Context(), actor, r.PathValue("id"))
	out := make([]custodyPayload, len(chain))
	for i, e := range chain {
		out[i] = custodyPayload{
			Index: e.Index, Type: string(e.Type), Timestamp: e.Timestamp,
			Actor: e.Actor, System: e.System, Peer: e.Peer,
		}
	}
	return http.StatusOK, out, err
}

// verify runs the full integrity sweep. Any failure of the sweep itself is
// reported as 409 INTEGRITY FAILURE — except an outage (closed or wedged
// vault), which writeErr recognizes through the wrapping and answers 503: a
// node that is draining has not been tampered with.
func (s *Server) verify(*http.Request, string) (int, any, error) {
	rep, err := s.vault.VerifyAll(nil, nil)
	if err != nil {
		return 0, nil, &statusError{status: http.StatusConflict, err: err,
			body: map[string]any{"status": "INTEGRITY FAILURE", "error": err.Error()}}
	}
	heads := s.vault.Heads()
	payload := map[string]any{
		"status":            "ok",
		"records_checked":   rep.RecordsChecked,
		"versions_checked":  rep.VersionsChecked,
		"audit_events":      rep.AuditEvents,
		"provenance_chains": rep.ProvenanceChains,
	}
	if len(heads) == 1 {
		payload["tree_head_size"] = heads[0].Size
		payload["tree_head_root"] = fmt.Sprintf("%x", heads[0].Root)
	} else {
		// Multi-shard: one tree head per shard, plus the summed size.
		var total uint64
		shardHeads := make([]map[string]any, len(heads))
		for i, h := range heads {
			total += h.Size
			shardHeads[i] = map[string]any{
				"shard":          i,
				"tree_head_size": h.Size,
				"tree_head_root": fmt.Sprintf("%x", h.Root),
			}
		}
		payload["tree_head_size"] = total
		payload["shards"] = shardHeads
	}
	return http.StatusOK, payload, nil
}

func (s *Server) patientRecords(r *http.Request, actor string) (int, any, error) {
	ids, err := s.vault.PatientRecordsCtx(r.Context(), actor, r.PathValue("mrn"))
	return http.StatusOK, idList(ids), err
}

type disclosurePayload struct {
	Timestamp  time.Time `json:"timestamp"`
	Actor      string    `json:"actor"`
	Action     string    `json:"action"`
	Record     string    `json:"record"`
	Version    uint64    `json:"version,omitempty"`
	Outcome    string    `json:"outcome"`
	BreakGlass bool      `json:"break_glass,omitempty"`
}

func (s *Server) disclosures(r *http.Request, actor string) (int, any, error) {
	ds, err := s.vault.AccountingOfDisclosuresCtx(r.Context(), actor, r.PathValue("mrn"))
	out := make([]disclosurePayload, len(ds))
	for i, d := range ds {
		out[i] = disclosurePayload{
			Timestamp: d.Timestamp, Actor: d.Actor, Action: string(d.Action),
			Record: d.Record, Version: d.Version, Outcome: string(d.Outcome),
			BreakGlass: d.BreakGlass,
		}
	}
	return http.StatusOK, out, err
}

type proofPayload struct {
	RecordID  string   `json:"record_id"`
	Version   uint64   `json:"version"`
	CtHash    string   `json:"ciphertext_sha256"`
	LeafIndex uint64   `json:"leaf_index"`
	Path      []string `json:"inclusion_path"`
	HeadSize  uint64   `json:"head_size"`
	HeadRoot  string   `json:"head_root"`
	HeadTime  string   `json:"head_time"`
	HeadSig   string   `json:"head_signature"`
	VaultKey  string   `json:"vault_public_key"`
}

func (s *Server) proof(r *http.Request, actor string) (int, any, error) {
	n, err := versionParam(r)
	if err != nil {
		return 0, nil, err
	}
	proof, err := s.vault.ProveVersionCtx(r.Context(), actor, r.PathValue("id"), n)
	if err != nil {
		return 0, nil, err
	}
	path := make([]string, len(proof.Inclusion.Hashes))
	for i, h := range proof.Inclusion.Hashes {
		path[i] = fmt.Sprintf("%x", h)
	}
	return http.StatusOK, proofPayload{
		RecordID:  proof.RecordID,
		Version:   proof.Version,
		CtHash:    fmt.Sprintf("%x", proof.CtHash),
		LeafIndex: proof.LeafIndex,
		Path:      path,
		HeadSize:  proof.Head.Size,
		HeadRoot:  fmt.Sprintf("%x", proof.Head.Root),
		HeadTime:  proof.Head.Timestamp.Format(time.RFC3339Nano),
		HeadSig:   fmt.Sprintf("%x", proof.Head.Signature),
		VaultKey:  s.vault.PublicKey().String(),
	}, nil
}

// requireArchivist gates the retention listings, which are no vault
// operation and so pass no op gate: the vault must be open, like every vault
// route, and the actor needs shred permission on some category.
func (s *Server) requireArchivist(actor string) error {
	if !s.vault.Health().Open {
		return &statusError{status: http.StatusServiceUnavailable, msg: "vault closed"}
	}
	allowed := s.vault.Authz().Check(actor, authz.ActShred, "").Allowed
	for _, cat := range ehr.Categories() {
		if allowed {
			break
		}
		allowed = s.vault.Authz().Check(actor, authz.ActShred, string(cat)).Allowed
	}
	if !allowed {
		return &statusError{status: http.StatusForbidden, msg: "retention management requires disposition (shred) permission"}
	}
	return nil
}

func (s *Server) expired(_ *http.Request, actor string) (int, any, error) {
	if err := s.requireArchivist(actor); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, idList(s.vault.ExpiredRecords()), nil
}

func (s *Server) listHolds(_ *http.Request, actor string) (int, any, error) {
	if err := s.requireArchivist(actor); err != nil {
		return 0, nil, err
	}
	holds := s.vault.Retention().Holds()
	type holdPayload struct {
		Record string    `json:"record"`
		Reason string    `json:"reason"`
		Placed time.Time `json:"placed"`
	}
	out := make([]holdPayload, len(holds))
	for i, h := range holds {
		out[i] = holdPayload{Record: h.Record, Reason: h.Reason, Placed: h.Placed}
	}
	return http.StatusOK, out, nil
}

// placeHold and releaseHold leave the shred-permission check to the vault,
// which audits a denial; a non-archivist's request is 403 through the
// outcome "denied".
func (s *Server) placeHold(r *http.Request, actor string) (int, any, error) {
	var req struct {
		Reason string `json:"reason"`
	}
	if err := decodeJSON(r, &req); err != nil {
		return 0, nil, err
	}
	if req.Reason == "" {
		return 0, nil, badRequest("a hold requires a JSON body with a reason")
	}
	id := r.PathValue("id")
	err := s.vault.PlaceHoldCtx(r.Context(), actor, id, req.Reason)
	return http.StatusOK, map[string]string{"status": "held", "id": id}, err
}

func (s *Server) releaseHold(r *http.Request, actor string) (int, any, error) {
	id := r.PathValue("id")
	err := s.vault.ReleaseHoldCtx(r.Context(), actor, id)
	return http.StatusOK, map[string]string{"status": "released", "id": id}, err
}

// breakGlass issues an emergency grant, 60 minutes when minutes is omitted or
// not positive. The vault rejects an empty reason, an unknown principal or a
// grant longer than authz.MaxBreakGlass with outcome "invalid", a 400.
func (s *Server) breakGlass(r *http.Request, actor string) (int, any, error) {
	var req struct {
		Reason  string `json:"reason"`
		Minutes int    `json:"minutes"`
	}
	if err := decodeJSON(r, &req); err != nil {
		return 0, nil, err
	}
	if req.Minutes <= 0 {
		req.Minutes = 60
	}
	// Clamp before multiplying: any count above the cap stays above it
	// instead of wrapping into a valid duration.
	minutes := min(req.Minutes, int(authz.MaxBreakGlass/time.Minute)+1)
	err := s.vault.BreakGlassCtx(r.Context(), actor, req.Reason, time.Duration(minutes)*time.Minute)
	return http.StatusOK, map[string]any{"status": "granted", "actor": actor, "minutes": req.Minutes}, err
}
