package httpapi

import (
	"net/http"
	"strconv"
	"time"

	"medvault/internal/obs"
)

// Flight-ring retrieval: GET /debug/flight serves the live in-memory flight
// recorder as JSON, newest first. Query parameters:
//
//	op=<substring>    only events whose kind contains the substring (case-fold)
//	trace=<id>        only events carrying exactly this trace ID
//	record=<token>    only events for this record token
//	limit=<n>         at most n events (default 100, 0 = all retained)
//
// Like /metrics and /debug/traces, the endpoint is unauthenticated and
// PHI-free by construction: record IDs appear only as tokens keyed by the
// vault's master key (core.Vault.RecordToken), which no client can compute
// from a guessed ID, and no event field ever carries record content. The trace ID is
// the correlation handle into /debug/traces and the audit log.

// flightEventPayload is the JSON shape of one flight event.
type flightEventPayload struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Kind    string    `json:"kind"`
	Record  string    `json:"record,omitempty"` // hashed, never a raw ID
	Trace   string    `json:"trace,omitempty"`
	Outcome string    `json:"outcome,omitempty"`
	DurUS   int64     `json:"duration_us,omitempty"`
	Shard   string    `json:"shard,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

func flightToPayload(evs []obs.FlightEvent) []flightEventPayload {
	out := make([]flightEventPayload, len(evs))
	for i, ev := range evs {
		out[i] = flightEventPayload{
			Seq: ev.Seq, Time: ev.Time, Kind: ev.Kind, Record: ev.Record,
			Trace: ev.Trace, Outcome: ev.Outcome, DurUS: ev.Dur.Microseconds(),
			Shard: ev.Shard, Detail: ev.Detail,
		}
	}
	return out
}

// flightBody is the /debug/flight response envelope.
type flightBody struct {
	Retained int                  `json:"retained"` // events currently in the ring
	Count    int                  `json:"count"`    // events returned after filtering
	Events   []flightEventPayload `json:"events"`
}

// FlightHandler serves f's live ring as JSON. Exported so cmd/medvaultd can
// mount it on the private debug listener as well as the main API mux.
func FlightHandler(f *obs.Flight) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl := obs.FlightFilter{
			Kind:   r.URL.Query().Get("op"),
			Trace:  r.URL.Query().Get("trace"),
			Record: r.URL.Query().Get("record"),
			Limit:  100,
		}
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeJSON(w, http.StatusBadRequest,
					errorBody{Error: "limit must be a non-negative integer"})
				return
			}
			fl.Limit = n
		}
		evs := f.Snapshot(fl)
		writeJSON(w, http.StatusOK, flightBody{
			Retained: f.Len(),
			Count:    len(evs),
			Events:   flightToPayload(evs),
		})
	})
}
