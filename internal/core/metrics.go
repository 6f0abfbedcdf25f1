package core

import (
	"context"
	"errors"
	"time"

	"medvault/internal/audit"
	"medvault/internal/obs"
	"medvault/internal/provenance"
)

// Vault-level instrumentation. Every public operation reports its latency
// and outcome here, giving the top line of the security-vs-performance
// accounting; the per-mechanism histograms (crypto, index, audit, WAL,
// blockstore) recorded by the lower layers explain where that time went.
var (
	metLiveRecords = obs.Default.Gauge("medvault_records_live",
		"Live (non-shredded) records across vaults in this process.")
	metProvenanceErrors = obs.Default.Counter("medvault_provenance_append_errors_total",
		"Custody-chain appends that failed after the operation's state was already committed.")
	metInflightOps = obs.Default.Gauge("medvault_core_inflight_ops",
		"Vault operations currently executing in this process.")
)

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

// observeOp is deferred at the top of each vault operation:
//
//	defer v.observeOp(ctx, "put", rec.ID, time.Now())(&err)
//
// The outer call captures the start time, raises the in-flight gauge, and
// registers the op with the watchdog's in-flight tracker. The returned func
// reads the named error at return time and records one latency observation,
// one outcome-labeled count, and one flight-recorder event (hashed record
// ID, trace ID, outcome, latency — never plaintext). Shards of a
// multi-shard Cluster add a shard label so /metrics breaks the top line
// down per shard; a one-shard vault keeps the exact label set it always
// had.
//
// Ordering matters for the crash invariant: the closure runs after the
// operation has fully returned, i.e. after any WAL group-commit fsync for
// an acked write. A flight event persisted by the (unsynced) sink therefore
// implies its WAL entry was already durable, so the persisted flight tail
// can never claim an op the recovered vault does not have.
func (v *Vault) observeOp(ctx context.Context, op, id string, start time.Time) func(*error) {
	metInflightOps.Add(1)
	slot := obs.ActiveOps.Begin()
	return func(errp *error) {
		metInflightOps.Add(-1)
		obs.ActiveOps.End(slot)
		outcome := outcomeLabel(*errp)
		met := v.opMetrics(op, outcome)
		met.count.Inc()
		met.seconds.ObserveSince(start)

		ev := v.flight.Record(obs.FlightEvent{
			Kind:    op,
			Record:  obs.HashRecordID(id),
			Trace:   obs.TraceID(ctx),
			Outcome: outcome,
			Dur:     time.Since(start),
			Shard:   v.shard,
		})
		if v.fsink != nil {
			v.fsink.Append(ev)
		}
		if outcome == "ok" && ev.Trace != "" && mutatingOps[op] {
			if ts, ok := v.fs.(TraceShipper); ok {
				ts.ShipTrace(ev.Trace, op, ev.Record)
			}
		}
	}
}

// opSeries is the pair of series one (op, outcome) reports to.
type opSeries struct {
	count   *obs.Counter
	seconds *obs.Histogram
}

type opKey struct{ op, outcome string }

// opMetrics returns this vault's medvault_core_ops_total and
// medvault_core_op_seconds series for (op, outcome), resolving them — shard
// label included — on first use, so a steady-state operation builds no label
// set and never touches the registry.
func (v *Vault) opMetrics(op, outcome string) opSeries {
	k := opKey{op, outcome}
	v.opMu.RLock()
	s, ok := v.opMet[k]
	v.opMu.RUnlock()
	if ok {
		return s
	}
	labels := []obs.Label{obs.L("op", op), obs.L("outcome", outcome)}
	if v.shard != "" {
		labels = append(labels, obs.L("shard", v.shard))
	}
	s = opSeries{
		count: obs.Default.Counter("medvault_core_ops_total",
			"Vault operations by outcome.", labels...),
		seconds: obs.Default.Histogram("medvault_core_op_seconds",
			"Vault operation latency.", obs.LatencyBuckets, labels...),
	}
	v.opMu.Lock()
	v.opMet[k] = s
	v.opMu.Unlock()
	return s
}

// span starts an operation span, stamping the shard attribute when this
// vault is a shard of a multi-shard cluster. All core operation spans go
// through here so /debug/traces shows which shard served each step.
func (v *Vault) span(ctx context.Context, name string) (context.Context, *obs.Span) {
	ctx, sp := obs.StartSpan(ctx, name)
	if v.shard != "" {
		sp.SetAttr("shard", v.shard)
	}
	return ctx, sp
}

// outcomeLabel buckets an operation error into a low-cardinality label.
func outcomeLabel(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrDenied):
		return "denied"
	case errors.Is(err, ErrNotFound):
		return "not_found"
	case errors.Is(err, ErrShredded):
		return "shredded"
	case errors.Is(err, ErrExists):
		return "exists"
	case errors.Is(err, ErrTampered):
		return "tampered"
	default:
		return "error"
	}
}

// custodyAfterCommit extends the record's custody chain once an operation's
// state is durably committed, and surfaces an append failure without failing
// the operation: that would lie to the caller — the version exists, is
// indexed, and is Merkle-committed, so a retried Put would hit ErrExists —
// therefore the gap is reported as a post-commit warning: an audit event with
// an error outcome plus a counter alerting operators that a chain is
// incomplete.
func (v *Vault) custodyAfterCommit(ctx context.Context, action audit.Action, typ provenance.EventType, actor, id string, ctHash [32]byte) {
	if _, err := v.prov.Record(id, typ, actor, ctHash, ""); err != nil {
		metProvenanceErrors.Inc()
		_, _ = v.aud.AppendCtx(ctx, audit.Event{
			Actor: actor, Action: action, Record: id,
			Outcome: audit.OutcomeError,
			Detail:  "custody chain append failed after commit: " + err.Error(),
		})
	}
}
