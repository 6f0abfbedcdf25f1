package sim

import (
	"slices"
	"strings"

	"medvault/internal/core"
	"medvault/internal/obs"
)

// flightTail reads the persisted flight tail off the raw image after a power
// cut, before the remount (which would start fresh segments in the same
// directories). The tail must decode — torn final frames are expected crash
// damage, a decoder error or panic is not — and must be plaintext-free. The
// sim is in a uniquely strong position for the leak check: it knows every
// record ID it ever minted and the whole patient population, so it can scan
// every string field of every surviving event for all of them.
func (e *engine) flightTail(i int, s Step) ([]obs.FlightEvent, *Divergence) {
	div := divAt(i, s)
	leaks := append(e.model.allIDs(), mrnPool...)
	evs, err := core.ReadFlightTail(e.mem, "vault")
	if err != nil {
		return nil, div("flight tail undecodable after power cut: %v", err)
	}
	for _, ev := range evs {
		for _, field := range ev.Strings() {
			for _, leak := range leaks {
				if leak != "" && strings.Contains(field, leak) {
					return nil, div("flight event %d leaks %q: %+v", ev.Seq, leak, ev)
				}
			}
		}
	}
	return evs, nil
}

// claimed are the flight kinds of the ops the model logs as acked per record.
var claimed = []OpKind{OpPut, OpCorrect, OpShred, OpPlaceHold, OpReleaseHold}

// checkFlightClaims holds the persisted tail to the model once the op in
// flight is settled. The flight sink never fsyncs, but it appends an acked
// op's event only after the op's own WAL fsync returned, so every persisted
// ok event of a put, correct, shred or hold names an op the model holds. One
// record's events share a shard and decode in the order they were acked, and
// the unsynced tail may lose any of them, so per record the events are a
// subsequence of the model's acked ops.
func (e *engine) checkFlightClaims(i int, s Step, tail []obs.FlightEvent) *Divergence {
	acked := e.model.acked
	ids := make(map[string]string, len(acked))
	for id := range acked {
		ids[obs.HashRecordID(id)] = id
	}
	matched := make(map[string]int, len(acked))
	for _, ev := range tail {
		op := OpKind(ev.Kind)
		if ev.Outcome != "ok" || !slices.Contains(claimed, op) {
			continue
		}
		id, known := ids[ev.Record]
		ops, j := acked[id], matched[id]
		for j < len(ops) && ops[j] != op {
			j++
		}
		if !known || j == len(ops) {
			return divAt(i, s)("flight tail records an acked %s of record %s (%s) the recovered vault does not hold", op, id, ev.Record)
		}
		matched[id] = j + 1
	}
	return nil
}
