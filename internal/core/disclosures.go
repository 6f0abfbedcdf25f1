package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
)

// Disclosure is one access to a patient's EPHI, as reconstructed from the
// tamper-evident audit trail for a HIPAA §164.528 "accounting of
// disclosures" request.
type Disclosure struct {
	Timestamp  time.Time
	Actor      string
	Action     audit.Action
	Record     string
	Version    uint64
	Outcome    audit.Outcome
	BreakGlass bool // the access rode an emergency grant
}

// AccountingOfDisclosuresCtx answers a patient's (or their representative's)
// statutory request: every access to every record carrying the patient's
// MRN, in chronological order, reconstructed from the audit chain. Denied
// attempts are included — a patient is entitled to know who *tried*.
//
// The query requires audit permission and is itself audited — on every
// shard, in shard order, even when it is denied: the accounting request is
// disclosable activity on every chain it reads. Each shard reconstructs the
// disclosures of the records it holds, and the per-shard ledgers are
// concatenated in shard order and stably sorted by timestamp, so ties keep
// shard order deterministically. The MRN is unknown only when no shard
// holds a record carrying it.
func (c *Cluster) AccountingOfDisclosuresCtx(ctx context.Context, actor, mrn string) (_ []Disclosure, err error) {
	ctx, done := c.begin(ctx, "disclosures")
	defer done(&err)
	parts := make([][]Disclosure, len(c.shards))
	found := false
	errs := c.gather(func(i int, v *Vault) error {
		return v.admitted(func() (err error) {
			var ok bool
			parts[i], ok, err = v.disclosures(ctx, actor, mrn)
			found = found || ok
			return err
		})
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: no records for MRN %s", ErrNotFound, mrn)
	}
	out := flatten(parts)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp.Before(out[j].Timestamp) })
	return out, nil
}

// disclosures is one shard's part of the accounting: the audited query and
// the shard's disclosures for the MRN, in chain order. It reports
// found=false when the shard holds no record (live or shredded) with that
// MRN, in which case the audit log is not read at all; a failed audit read
// fails the whole accounting. The caller applies the final chronological
// sort after concatenating per-shard results in shard order.
func (v *Vault) disclosures(ctx context.Context, actor, mrn string) (out []Disclosure, found bool, err error) {
	if err := v.authorize(ctx, actor, authz.ActAudit, audit.ActionVerify, "", 0, ""); err != nil {
		return nil, false, err
	}
	if mrn == "" {
		return nil, false, fmt.Errorf("core: empty MRN")
	}
	// Shredded records count: the access history of a destroyed record is
	// still disclosable.
	ids := v.recordsOf(mrn)
	if len(ids) == 0 {
		return nil, false, nil
	}

	// One by-record query per record of the patient reads exactly the events
	// that name it. An access that rode a break-glass grant is followed at
	// seq+1 by an ActionBreakGlass event that authorize appended with it
	// atomically, naming the same actor and record — so the marker is in the
	// same record's list as the access it flags, and pairing never needs an
	// event outside it. (Seq numbers are local to this vault's chain, and both
	// events name the record, so the pair is shard-local by construction.)
	var events []audit.Event
	breakGlassSeqs := make(map[uint64]bool)
	for _, id := range ids {
		evs, err := v.aud.Search(audit.Query{Record: id})
		if err != nil {
			return nil, true, err
		}
		for _, e := range evs {
			if e.Action == audit.ActionBreakGlass {
				breakGlassSeqs[e.Seq-1] = true
			}
		}
		events = append(events, evs...)
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	for _, e := range events {
		switch e.Action {
		case audit.ActionRead, audit.ActionCreate, audit.ActionCorrect,
			audit.ActionDelete, audit.ActionMigrateOut, audit.ActionMigrateIn,
			audit.ActionBackup, audit.ActionRestore:
			out = append(out, Disclosure{
				Timestamp:  e.Timestamp,
				Actor:      e.Actor,
				Action:     e.Action,
				Record:     e.Record,
				Version:    e.Version,
				Outcome:    e.Outcome,
				BreakGlass: breakGlassSeqs[e.Seq],
			})
		}
	}
	return out, true, nil
}

// PatientRecordsCtx returns the record IDs carrying the patient's MRN that the
// actor is permitted to read — the entry point for a patient-access request
// (HIPAA right of access, the paper's "individuals have the right to
// request correction" precondition). The scan is pure in-memory registry
// work, so the span has no children; it exists so patient-access requests
// are visible in traces like every other operation.
func (v *Vault) PatientRecordsCtx(ctx context.Context, actor, mrn string) (_ []string, err error) {
	_, done, err := v.begin(ctx, "patient_records", "")
	defer done(&err)
	if err != nil {
		return nil, err
	}
	return v.readable(actor, v.recordsOf(mrn)), nil
}

// recordsOf returns the IDs of every record carrying the MRN, shredded ones
// included. The MRN is immutable after creation, so the registry lock alone
// suffices.
func (v *Vault) recordsOf(mrn string) []string {
	num, ok := v.names.Find(mrn)
	if !ok {
		return nil
	}
	v.regMu.RLock()
	defer v.regMu.RUnlock()
	var ids []string
	for n, st := range v.records {
		if st != nil && st.mrn == num {
			ids = append(ids, v.recs.ID(uint32(n)))
		}
	}
	return ids
}
