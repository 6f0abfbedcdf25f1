package core

import (
	"context"
	"encoding/hex"
	"errors"
	"slices"
	"strings"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/blockstore"
	"medvault/internal/ehr"
	"medvault/internal/obs"
	"medvault/internal/provenance"
	"medvault/internal/retention"
)

// The op envelope: every public Vault operation runs inside
//
//	ctx, done, err := v.begin(ctx, "put", rec.ID)
//	defer done(&err)
//
// and an act the cluster performs once across its shards inside c.begin.
// begin admits the operation through the op gate, opens its core.<op> span
// and registers it in flight (medvault_core_inflight_ops, obs.ActiveOps).
// done releases all three and emits the one completion event: the op's
// metric series, a PHI-free flight event to the ring and the durable sink,
// and the trace mark a replicating primary ships for an acked
// put/correct/shred. An operation refused at the gate completes as "closed".
// done runs after the WAL fsync of an acked write, so a persisted flight
// event (the sink never syncs) can never claim an op recovery lacks.

var metInflightOps = obs.Default.Gauge("medvault_core_inflight_ops",
	"Vault operations currently executing in this process.")

// opSpans names the span of every operation the envelope reports; the op
// itself is the op label of the op metrics and the flight event's kind.
var opSpans = map[string]string{}

func init() {
	for _, op := range strings.Fields(`put get get_version history correct shred search
		place_hold release_hold break_glass audit_events provenance prove_version
		patient_records disclosures export import import_restored record_backed_up
		record_migrated_out verify_all sanitize`) {
		opSpans[op] = "core." + op
	}
}

// begin opens the envelope of one operation under the shared gate; id is
// the record it acts on, or "" for a whole-vault operation.
func (v *Vault) begin(ctx context.Context, op, id string) (context.Context, func(*error), error) {
	return v.enter(ctx, op, id, &v.gate, false)
}

// beginExclusive is begin for an untraced whole-vault pass (VerifyAll,
// SanitizeMedia): in-flight operations drain first, and none start until done.
func (v *Vault) beginExclusive(op string) (context.Context, func(*error), error) {
	return v.enter(context.Background(), op, "", &v.gate, true)
}

// begin opens the envelope of an act the cluster performs once across its
// shards — a break-glass grant, an accounting of disclosures — so it has one
// span and one event with the request's outcome. Each shard's part passes
// that shard's gate through admitted; the act itself belongs to no shard, so
// its event has no shard label and reaches the ring but no flight segment.
func (c *Cluster) begin(ctx context.Context, op string) (context.Context, func(*error)) {
	ctx, done, _ := c.shards[0].enter(ctx, op, "", nil, false)
	return ctx, done
}

// admitted runs one shard's part of a cluster-wide act under the shard's gate.
func (v *Vault) admitted(part func() error) error {
	if err := v.gate.admit(false); err != nil {
		return err
	}
	defer v.gate.release(false)
	return part()
}

// enter is the envelope; a nil gate marks a cluster-wide act (Cluster.begin).
func (v *Vault) enter(ctx context.Context, op, id string, gate *opGate, exclusive bool) (context.Context, func(*error), error) {
	start := time.Now()
	shard, sink := v.shard, v.fsink
	if gate == nil {
		shard, sink = "", nil
	}
	metInflightOps.Add(1)
	slot := obs.ActiveOps.Begin()
	ctx, sp := obs.StartSpan(ctx, opSpans[op])
	if shard != "" {
		sp.SetAttr("shard", shard)
	}
	var gateErr error
	if gate != nil {
		gateErr = gate.admit(exclusive)
	}
	done := func(errp *error) {
		err := *errp
		if gate != nil && gateErr == nil {
			gate.release(exclusive)
		}
		sp.End(err)
		metInflightOps.Add(-1)
		obs.ActiveOps.End(slot)

		outcome := Outcome(err)
		// A one-shard vault and a cluster-wide act have no shard label.
		labels := []obs.Label{obs.L("op", op), obs.L("outcome", outcome), obs.L("shard", shard)}
		if shard == "" {
			labels = labels[:2]
		}
		obs.Default.Counter("medvault_core_ops_total",
			"Vault operations by outcome.", labels...).Inc()
		obs.Default.Histogram("medvault_core_op_seconds",
			"Vault operation latency.", obs.LatencyBuckets, labels...).ObserveSince(start)
		ev := v.flight.Record(obs.FlightEvent{
			Kind:    op,
			Record:  v.recordToken(id),
			Trace:   obs.TraceID(ctx),
			Outcome: outcome,
			Dur:     time.Since(start),
			Shard:   shard,
		})
		if sink != nil {
			sink.Append(ev)
		}
		if outcome == "ok" && ev.Trace != "" && mutatingOps[op] {
			if ts, ok := v.fs.(TraceShipper); ok {
				ts.ShipTrace(ev.Trace, op, ev.Record)
			}
		}
	}
	return ctx, done, gateErr
}

// recordToken is the token flight events carry for record id: the first six
// bytes, in hex, of an HMAC of the ID under a key derived from the master key
// (the same on every shard). A record's events share it, and the flight plane
// is read without keys, but only a holder of the master key can match a token
// to an ID: record IDs are guessable, and an unkeyed hash of one is not a
// pseudonym. "" for "".
func (v *Vault) recordToken(id string) string {
	if id == "" {
		return ""
	}
	var sum [32]byte
	return hex.EncodeToString(v.tokens.Sum(sum[:0], []byte(id))[:6])
}

// RecordToken is the token flight events carry for record id, on any shard.
func (c *Cluster) RecordToken(id string) string { return c.shards[0].recordToken(id) }

// TraceShipper is implemented by filesystems that forward observability
// markers to a replication peer. A replicating primary's capture FS ships
// the originating trace ID alongside the op's own frames, so a write on the
// primary is joinable to its apply event in the follower's flight recorder.
type TraceShipper interface {
	ShipTrace(trace, op, recordHash string)
}

// mutatingOps name the operations whose trace IDs are worth shipping to a
// follower: the ones that produce apply events there.
var mutatingOps = map[string]bool{"put": true, "correct": true, "shred": true}

// outcomes is the one table from an operation's error to the label its
// completion event carries; httpapi maps labels to statuses and the
// simulator compares them, so neither lists a sentinel. The first match wins,
// and the outages come first, whatever an operation wrapped them in.
var outcomes = []struct {
	err   error
	label string
}{
	{ErrClosed, "closed"},
	{ErrWedged, "wedged"},
	{audit.ErrWedged, "wedged"},
	{provenance.ErrWedged, "wedged"},
	{blockstore.ErrWedged, "wedged"},
	{ErrDenied, "denied"},
	{ErrNotFound, "not_found"},
	{ErrShredded, "shredded"},
	{ErrExists, "exists"},
	{ErrIdentityChanged, "identity_changed"},
	{ErrTampered, "tampered"},
	{retention.ErrOnHold, "on_hold"},
	{retention.ErrRetentionActive, "retention_active"},
	{ehr.ErrInvalid, "invalid"},
	{ErrBadSince, "invalid"},
	{authz.ErrEmptyReason, "invalid"},
	{authz.ErrBadDuration, "invalid"},
	{authz.ErrUnknownPrincipal, "invalid"},
}

// Outcome names an operation's result: "ok" for nil, the label of the first
// sentinel in the outcome table that err wraps, and "error" for anything
// else — a failure of the node, not a verdict on the request.
func Outcome(err error) string {
	if err == nil {
		return "ok"
	}
	for _, o := range outcomes {
		if errors.Is(err, o.err) {
			return o.label
		}
	}
	return "error"
}

// OutcomeLabels lists every label Outcome can return.
func OutcomeLabels() []string {
	out := []string{"ok", "error"}
	for _, o := range outcomes {
		if !slices.Contains(out, o.label) {
			out = append(out, o.label)
		}
	}
	return out
}
