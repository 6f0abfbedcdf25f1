package httpapi

import (
	"net/http"
	"strconv"
	"time"

	"medvault/internal/obs"
)

// Trace retrieval: GET /debug/traces serves the tracer's retained ring as
// JSON, newest first. Query parameters:
//
//	op=<substring>   only traces whose op contains the substring (case-fold)
//	min=<duration>   only traces at least this long (Go duration, e.g. 10ms)
//	limit=<n>        at most n traces (default 50, 0 = all retained)
//
// Like /metrics, the endpoint is deliberately unauthenticated and therefore
// PHI-free by construction: span names are fixed mechanism labels
// (crypto.seal, wal.commit, …), ops are route patterns or bench op names,
// and no span attribute ever carries a record ID, MRN, or search keyword.
// The trace ID is the only correlation handle; resolving it to a record
// requires the audit log, which is behind authorization.

// tracePayload is the JSON shape of one retained trace.
type tracePayload struct {
	ID    string        `json:"id"`
	Op    string        `json:"op"`
	Start time.Time     `json:"start"`
	DurUS int64         `json:"duration_us"`
	Err   string        `json:"error,omitempty"`
	Slow  bool          `json:"slow,omitempty"`
	SpanN int           `json:"span_count"`
	Spans []spanPayload `json:"spans"`
}

type spanPayload struct {
	Name     string        `json:"name"`
	DurUS    int64         `json:"duration_us"`
	Err      string        `json:"error,omitempty"`
	Attrs    []attrPayload `json:"attrs,omitempty"`
	Children []spanPayload `json:"children,omitempty"`
}

type attrPayload struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// tracesBody is the /debug/traces response envelope: the tracer's lifetime
// counters first, so an operator can tell "no traces matched" apart from
// "no traced request arrived". Exemplars map each latency
// histogram family to the trace ID of its worst observation since the last
// metrics scrape — the bridge from "this histogram's tail got ugly" to the
// exact trace (and, via the audit log, request) that put it there.
type tracesBody struct {
	Started   uint64            `json:"traces_started"`
	Finished  uint64            `json:"traces_finished"`
	Count     int               `json:"count"`
	Exemplars []exemplarPayload `json:"exemplars,omitempty"`
	Traces    []tracePayload    `json:"traces"`
}

// exemplarPayload is one histogram family's slowest-observation exemplar.
type exemplarPayload struct {
	Family  string  `json:"family"`
	Trace   string  `json:"trace"`
	Seconds float64 `json:"seconds"`
}

// exemplarsFromRegistry peeks (without resetting — /metrics owns the reset)
// every histogram family's retained exemplar.
func exemplarsFromRegistry(r *obs.Registry) []exemplarPayload {
	var out []exemplarPayload
	for _, f := range r.Snapshot() {
		if f.Exemplar == nil {
			continue
		}
		out = append(out, exemplarPayload{
			Family: f.Name, Trace: f.Exemplar.Trace, Seconds: f.Exemplar.Value,
		})
	}
	return out
}

// TraceHandler serves t's retained traces as JSON. It is exported so
// cmd/medvaultd can mount it on a private debug listener alongside pprof as
// well as on the main API mux.
func TraceHandler(t *obs.Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f := obs.TraceFilter{Op: r.URL.Query().Get("op"), Limit: 50}
		if v := r.URL.Query().Get("min"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				writeJSON(w, http.StatusBadRequest,
					errorBody{Error: "min must be a non-negative Go duration (e.g. 10ms)"})
				return
			}
			f.MinDur = d
		}
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeJSON(w, http.StatusBadRequest,
					errorBody{Error: "limit must be a non-negative integer"})
				return
			}
			f.Limit = n
		}
		traces := t.Snapshot(f)
		out := make([]tracePayload, len(traces))
		for i, tr := range traces {
			out[i] = tracePayload{
				ID: tr.ID, Op: tr.Op, Start: tr.Start,
				DurUS: tr.Dur.Microseconds(), Err: tr.Err, Slow: tr.Slow,
				SpanN: tr.SpanCount(), Spans: spansToPayload(tr.Spans),
			}
		}
		started, finished := t.Stats()
		writeJSON(w, http.StatusOK, tracesBody{
			Started: started, Finished: finished,
			Count: len(out), Exemplars: exemplarsFromRegistry(obs.Default), Traces: out,
		})
	})
}

func spansToPayload(spans []*obs.Span) []spanPayload {
	if len(spans) == 0 {
		return nil
	}
	out := make([]spanPayload, len(spans))
	for i, sp := range spans {
		p := spanPayload{
			Name: sp.Name, DurUS: sp.Dur.Microseconds(), Err: sp.Err,
			Children: spansToPayload(sp.Children),
		}
		for _, a := range sp.Attrs {
			p.Attrs = append(p.Attrs, attrPayload{Key: a.Key, Value: a.Value})
		}
		out[i] = p
	}
	return out
}
