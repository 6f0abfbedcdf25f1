package repl

import (
	"context"
	"testing"

	"medvault/internal/obs"
)

// TestTraceMarkReachesFollowerFlight proves the cross-node join the flight
// recorder exists for: a traced write on the primary leaves an apply event
// carrying the same trace ID in the follower's flight ring, keyed by the
// same record token — and never the record plaintext.
func TestTraceMarkReachesFollowerFlight(t *testing.T) {
	_, _, fol, _, cap := pair(t)
	fol.flight = obs.NewFlight(64) // private ring: deterministic assertions
	v := openVault(t, cap, 1)
	defer v.Close()

	ctx, tr := obs.DefaultTracer.Start(context.Background(), "put", "")
	rec := testRecord("traced-rec", 1)
	if _, err := v.PutCtx(ctx, "dr-house", rec); err != nil {
		t.Fatalf("put: %v", err)
	}
	obs.DefaultTracer.Finish(tr, nil)

	evs := fol.flight.Snapshot(obs.FlightFilter{Kind: "repl.apply"})
	if len(evs) != 1 {
		t.Fatalf("follower flight has %d apply events, want 1: %+v", len(evs), evs)
	}
	ev := evs[0]
	if ev.Trace != tr.ID {
		t.Fatalf("apply event trace %q, want primary's %q", ev.Trace, tr.ID)
	}
	if want := v.RecordToken(rec.ID); ev.Record != want {
		t.Fatalf("apply event record %q, want the record token %q", ev.Record, want)
	}
	if ev.Detail != "put" {
		t.Fatalf("apply event detail %q, want op name", ev.Detail)
	}

	// An untraced write ships no mark: the follower ring stays at one event.
	if _, err := v.PutCtx(context.Background(), "dr-house", testRecord("untraced-rec", 1)); err != nil {
		t.Fatalf("untraced put: %v", err)
	}
	if evs := fol.flight.Snapshot(obs.FlightFilter{Kind: "repl.apply"}); len(evs) != 1 {
		t.Fatalf("untraced put shipped a trace mark: %+v", evs)
	}
}

// TestTraceMarkCodecRoundTrip pins the wire form of the marker op.
func TestTraceMarkCodecRoundTrip(t *testing.T) {
	in := OpRecord{Kind: opTraceMark, Path: "a1b2c3d4e5f6", Old: "0123456789abcdef", Data: []byte("shred")}
	out, ok := decodeOp(encodeOp(in))
	if !ok {
		t.Fatal("trace mark failed to decode")
	}
	if out.Path != in.Path || out.Old != in.Old || string(out.Data) != "shred" {
		t.Fatalf("round trip mangled the marker: %+v", out)
	}
}
