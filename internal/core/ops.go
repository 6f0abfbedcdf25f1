package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/ehr"
	"medvault/internal/obs"
	"medvault/internal/provenance"
	"medvault/internal/vcrypto"
)

// authorize runs the access check and writes the decision — allowed or
// denied — to the audit log. It returns ErrDenied (already audited) when the
// actor lacks permission. Break-glass elevations are additionally flagged
// with their own audit event, so emergency access is always reviewable.
// The caller holds the op gate (shared or exclusive).
func (v *Vault) authorize(ctx context.Context, actor string, act authz.Action, auditAction audit.Action, recordID string, version uint64, category string) error {
	_, err := v.authorizeOwed(ctx, actor, act, auditAction, recordID, version, category, false)
	return err
}

// authorizeOwed is authorize for a create or a correction when fold is set:
// a plain allowance — allowed, no break-glass — is not appended but returned
// owed, for commit to fold into the operation's 'V' entry, or for the
// operation's deferred settle to append if it gives up first. The decision's
// audit.append span is recorded here either way; a folded event is
// sequenced inside the entry's wal.enqueue.
func (v *Vault) authorizeOwed(ctx context.Context, actor string, act authz.Action, auditAction audit.Action, recordID string, version uint64, category string, fold bool) (*allowance, error) {
	d := v.auth.Check(actor, act, category)
	outcome := audit.OutcomeAllowed
	if !d.Allowed {
		outcome = audit.OutcomeDenied
	}
	events := []audit.Event{{
		Actor:   actor,
		Action:  auditAction,
		Record:  recordID,
		Version: version,
		Outcome: outcome,
		Detail:  d.Reason,
	}}
	if fold && d.Allowed && !d.BreakGlass {
		// A log that can append nothing fails the operation now, as an
		// append would, not after the work it would do first.
		if err := v.aud.Refusal(); err != nil {
			return nil, err
		}
		_, sp := obs.StartSpan(ctx, "audit.append")
		events[0].Trace = obs.TraceID(ctx)
		sp.End(nil)
		return &allowance{e: events[0], owed: true}, nil
	}
	if d.Allowed && d.BreakGlass {
		// The decision and its break-glass flag are appended atomically:
		// AccountingOfDisclosures pairs them by adjacent sequence numbers,
		// which concurrent appenders must not be able to interleave.
		events = append(events, audit.Event{
			Actor:   actor,
			Action:  audit.ActionBreakGlass,
			Record:  recordID,
			Version: version,
			Outcome: audit.OutcomeAllowed,
			Detail:  d.Reason,
		})
	}
	if err := v.appendAudit(ctx, events...); err != nil {
		return nil, err
	}
	if !d.Allowed {
		return nil, fmt.Errorf("%w: %s %s on %q: %s", ErrDenied, actor, act, recordID, d.Reason)
	}
	return nil, nil
}

// allowance is a create's or correction's allowed audit event while the
// operation owes it to the chain (authorizeOwed).
type allowance struct {
	e    audit.Event
	owed bool
}

// take reports whether the event is still owed, and marks it paid: commit
// folds it into the entry it logs.
func (a *allowance) take() bool {
	if a == nil || !a.owed {
		return false
	}
	a.owed = false
	return true
}

// settle appends the event if the operation gave up before commit took it,
// so the chain holds the decision in the place it held before the fold.
func (a *allowance) settle(ctx context.Context, v *Vault) {
	if a.take() {
		_ = v.appendAudit(ctx, a.e)
	}
}

// lookup fetches the record state from the registry, which may be shredded.
// It only finds the ID's number, so a lookup of an unknown ID grows nothing.
func (v *Vault) lookup(id string) (*recordState, bool) {
	v.regMu.RLock()
	defer v.regMu.RUnlock()
	return v.lookupLocked(id)
}

// lookupLocked is lookup under regMu.
func (v *Vault) lookupLocked(id string) (*recordState, bool) {
	if n, ok := v.recs.Find(id); ok && int(n) < len(v.records) && v.records[n] != nil {
		return v.records[n], true
	}
	return nil, false
}

// registered is one registry entry with its ID.
type registered struct {
	id string
	st *recordState
}

// registry returns every record the shard holds, shredded ones included,
// sorted by ID.
func (v *Vault) registry() []registered {
	v.regMu.RLock()
	var out []registered
	for n, st := range v.records {
		if st != nil {
			out = append(out, registered{v.recs.ID(uint32(n)), st})
		}
	}
	v.regMu.RUnlock()
	slices.SortFunc(out, func(a, b registered) int { return strings.Compare(a.id, b.id) })
	return out
}

// stateFor returns the record state, distinguishing missing from shredded.
func (v *Vault) stateFor(id string) (*recordState, error) {
	st, ok := v.lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if st.shredded.Load() {
		return nil, fmt.Errorf("%w: %s", ErrShredded, id)
	}
	return st, nil
}

// appendAudit is core's one append of standalone audit events. It stamps
// every event with the trace ctx carries ("" when untraced) and records one
// "audit.append" span around the batch, which lands at adjacent sequence
// numbers with nothing interleaved (audit.Log.AppendAll), each an entry of
// meta.wal that is written, not synced, when it returns (enqueueAudit). The
// trace ID is hashed and MACed with the rest of the event, so the link from
// an audit entry to its trace is itself tamper-evident.
func (v *Vault) appendAudit(ctx context.Context, events ...audit.Event) error {
	_, sp := obs.StartSpan(ctx, "audit.append")
	id := obs.TraceID(ctx)
	for i := range events {
		events[i].Trace = id
	}
	_, err := v.aud.AppendAll(events)
	sp.End(err)
	return err
}

// auditProbe records a failed lookup: unknown-record or unknown-version
// probing is signal, so the attempt is written even though nothing else is.
// The event names the probed ID in Record, so its Detail is the outcome label
// (not_found, shredded): err's text repeats the ID, and would make every
// probed ID a detail symbol of its own.
func (v *Vault) auditProbe(ctx context.Context, actor string, action audit.Action, id string, version uint64, err error) {
	_ = v.appendAudit(ctx, audit.Event{
		Actor: actor, Action: action, Record: id, Version: version,
		Outcome: audit.OutcomeError, Detail: Outcome(err),
	})
}

// commitVersion seals rec, in the sealed layout (ehr.EncodeSealed), as the
// given version of its record under dek and commits the 'V' entry that
// carries the ciphertext: one write and one fsync.
// wrappedDEK is the record's minted key blob on version 1 and nil afterwards;
// custody says whether the entry carries the version's custody event, and
// owed, when still owed, is the allowed audit event it folds. The caller
// holds the record's stripe exclusively.
func (v *Vault) commitVersion(ctx context.Context, rec ehr.Record, author string, number uint64, dek vcrypto.Key, wrappedDEK []byte, custody bool, owed *allowance) (Version, error) {
	pt := ehr.EncodeSealed(rec)
	_, sp := obs.StartSpan(ctx, "crypto.seal")
	sp.SetUint("plaintext_bytes", uint64(len(pt)))
	ct, err := vcrypto.Seal(dek, pt, sealAAD(rec.ID, number))
	sp.End(err)
	if err != nil {
		return Version{}, fmt.Errorf("core: sealing %s v%d: %w", rec.ID, number, err)
	}
	e := walEntry{
		kind: 'V', custody: custody, id: rec.ID, wrappedDEK: wrappedDEK, ct: ct,
		ver: Version{Number: number, Author: author, Timestamp: v.now(), CtHash: vcrypto.Hash(ct)},
	}
	if err := v.commit(ctx, &e, &rec, owed); err != nil {
		return Version{}, err
	}
	return e.ver, nil
}

// mintFor checks that a new record may be created under id — the ID was never
// used, the category has a retention policy — and mints its DEK. The key is
// minted, not registered: apply registers it with the version it protects, so
// a Put or Import that fails before that leaves no key behind. The caller
// holds the record's stripe exclusively.
func (v *Vault) mintFor(id string, category ehr.Category) (vcrypto.Key, []byte, error) {
	if st, ok := v.lookup(id); ok {
		if st.shredded.Load() {
			return vcrypto.Key{}, nil, fmt.Errorf("%w: %s (IDs are never reused)", ErrShredded, id)
		}
		return vcrypto.Key{}, nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	if _, err := v.ret.PolicyFor(string(category)); err != nil {
		return vcrypto.Key{}, nil, fmt.Errorf("core: no retention policy covers %s: %w", id, err)
	}
	return v.keys.Mint(id)
}

// PutCtx stores a new record on behalf of actor. The actor needs write
// permission for the record's category. The record's own CreatedAt starts
// its retention clock. When ctx carries a trace (httpapi, the bench
// adapter), every mechanism the Put touches — seal, blockstore, WAL, Merkle,
// index, audit — records its span under the put's own op span (see
// envelope.go); the same holds for every other operation.
func (v *Vault) PutCtx(ctx context.Context, actor string, rec ehr.Record) (_ Version, err error) {
	ctx, done, err := v.begin(ctx, "put", rec.ID)
	defer done(&err)
	if err != nil {
		return Version{}, err
	}
	if err := rec.Validate(); err != nil {
		return Version{}, err
	}
	owed, err := v.authorizeOwed(ctx, actor, authz.ActWrite, audit.ActionCreate, rec.ID, 1, string(rec.Category), true)
	if err != nil {
		return Version{}, err
	}
	defer owed.settle(ctx, v)
	mu := v.stripes.forRecord(rec.ID)
	mu.Lock()
	defer mu.Unlock()
	dek, wrapped, err := v.mintFor(rec.ID, rec.Category)
	if err != nil {
		return Version{}, err
	}
	return v.commitVersion(ctx, rec, actor, 1, dek, wrapped, true, owed)
}

// readVersion reads and verifies one version of the record st holds. Caller
// holds at least the record's stripe read lock.
//
// The block cache short-circuits the ciphertext read without weakening the
// integrity check: an entry is only filled after its bytes hashed to
// ver.CtHash, and a hit is only served when the fill-time hash equals the
// CtHash this version demands — the same 32-byte comparison either way.
func (v *Vault) readVersion(ctx context.Context, id string, st *recordState, ver Version) (_ ehr.Record, err error) {
	ctx, sp := obs.StartSpan(ctx, "core.read_version")
	if v.shard != "" {
		sp.SetAttr("shard", v.shard)
	}
	defer func() { sp.End(err) }()
	ct, cached := v.bcache.get(ver.Ref, ver.CtHash)
	if cached {
		sp.SetAttr("block_cache", "hit")
	} else {
		sp.SetAttr("block_cache", "miss")
		var sum [32]byte
		ct, sum, err = v.ciphertext(ver.Ref)
		if err != nil {
			return ehr.Record{}, fmt.Errorf("%w: %s v%d: %v", ErrTampered, id, ver.Number, err)
		}
		if sum != ver.CtHash {
			return ehr.Record{}, fmt.Errorf("%w: %s v%d: ciphertext hash mismatch", ErrTampered, id, ver.Number)
		}
		v.bcache.put(ver.Ref, ver.CtHash, ct)
	}
	return v.openVersion(ctx, id, st, ver, ct)
}

// openVersion decrypts and decodes one version's ciphertext (sealedRecord).
// st is the record's registry state, nil while replay registers the record
// from this very version.
func (v *Vault) openVersion(ctx context.Context, id string, st *recordState, ver Version, ct []byte) (ehr.Record, error) {
	dek, err := v.keys.GetCtx(ctx, id)
	if err != nil {
		if errors.Is(err, vcrypto.ErrShredded) {
			return ehr.Record{}, fmt.Errorf("%w: %s", ErrShredded, id)
		}
		return ehr.Record{}, err
	}
	obs.CountWork(obs.WorkDecrypt)
	_, sp := obs.StartSpan(ctx, "crypto.open")
	sp.SetUint("ciphertext_bytes", uint64(len(ct)))
	pt, err := vcrypto.Open(dek, ct, sealAAD(id, ver.Number))
	sp.End(err)
	if err != nil {
		return ehr.Record{}, fmt.Errorf("%w: %s v%d: %v", ErrTampered, id, ver.Number, err)
	}
	return v.sealedRecord(id, st, ver.Number, pt)
}

// sealedRecord decodes the plaintext of record id's version number. The
// sealed layout has no ID: the AAD authenticated id, so the record is id's.
// A plaintext an older binary sealed is the MVR1 encoding, whose own ID must
// be id. Unless st is nil, the sealed MRN and category must be the
// registry's, so a registry edited on the medium (meta.snap holds both in
// the clear) fails the read rather than authorizing it under a forged
// category.
func (v *Vault) sealedRecord(id string, st *recordState, number uint64, pt []byte) (rec ehr.Record, err error) {
	if len(pt) > 0 && pt[0] == ehr.SealedTag {
		rec, err = ehr.DecodeSealed(pt, id)
	} else if rec, err = ehr.Decode(pt); err == nil && rec.ID != id {
		return ehr.Record{}, fmt.Errorf("%w: %s v%d: sealed record names %q", ErrTampered, id, number, rec.ID)
	}
	if err == nil && st != nil && (rec.MRN != v.names.ID(st.mrn) || rec.Category != v.category(st)) {
		// Neither MRN goes into the error: it reaches the caller and logs.
		return ehr.Record{}, fmt.Errorf("%w: %s v%d: sealed identity is not the registry's", ErrTampered, id, number)
	}
	return rec, err
}

// GetCtx returns the latest version of the record. The read — allowed or
// denied — is audited. Get holds only the record's stripe read lock, so
// reads of distinct records (and of the same record) run in parallel.
func (v *Vault) GetCtx(ctx context.Context, actor, id string) (ehr.Record, Version, error) {
	return v.read(ctx, "get", actor, id, 0)
}

// GetVersionCtx returns a specific historical version (1-based).
func (v *Vault) GetVersionCtx(ctx context.Context, actor, id string, number uint64) (ehr.Record, Version, error) {
	return v.read(ctx, "get_version", actor, id, number)
}

// read is the one body of Get (op "get": the record's newest version) and
// GetVersion ("get_version": version number).
func (v *Vault) read(ctx context.Context, op, actor, id string, number uint64) (_ ehr.Record, _ Version, err error) {
	ctx, done, err := v.begin(ctx, op, id)
	defer done(&err)
	if err != nil {
		return ehr.Record{}, Version{}, err
	}
	mu := v.stripes.forRecord(id)
	mu.RLock()
	defer mu.RUnlock()
	st, err := v.stateFor(id)
	switch {
	case err != nil:
	case op == "get":
		number = st.count()
	case number == 0 || number > st.count():
		err = fmt.Errorf("%w: %s has no version %d", ErrNotFound, id, number)
	}
	if err != nil {
		v.auditProbe(ctx, actor, audit.ActionRead, id, number, err)
		return ehr.Record{}, Version{}, err
	}
	target := v.version(st, number)
	if err := v.authorize(ctx, actor, authz.ActRead, audit.ActionRead, id, number, string(v.category(st))); err != nil {
		return ehr.Record{}, Version{}, err
	}
	rec, err := v.readVersion(ctx, id, st, target)
	return rec, target, err
}

// HistoryCtx returns the version metadata of the record, oldest first. It does
// not decrypt content, but still requires (and audits) read permission.
func (v *Vault) HistoryCtx(ctx context.Context, actor, id string) (_ []Version, err error) {
	ctx, done, err := v.begin(ctx, "history", id)
	defer done(&err)
	if err != nil {
		return nil, err
	}
	mu := v.stripes.forRecord(id)
	mu.RLock()
	defer mu.RUnlock()
	st, err := v.stateFor(id)
	if err != nil {
		v.auditProbe(ctx, actor, audit.ActionRead, id, 0, err)
		return nil, err
	}
	if err := v.authorize(ctx, actor, authz.ActRead, audit.ActionRead, id, 0, string(v.category(st))); err != nil {
		return nil, err
	}
	return v.versions(st), nil
}

// CorrectCtx appends an amended version of the record. History is preserved:
// the prior version stays readable via GetVersion, and the correction is
// committed, indexed, audited, and recorded in the custody chain. This is
// the capability the paper finds missing from compliance WORM storage.
func (v *Vault) CorrectCtx(ctx context.Context, actor string, rec ehr.Record) (_ Version, err error) {
	ctx, done, err := v.begin(ctx, "correct", rec.ID)
	defer done(&err)
	if err != nil {
		return Version{}, err
	}
	if err := rec.Validate(); err != nil {
		return Version{}, err
	}
	mu := v.stripes.forRecord(rec.ID)
	mu.Lock()
	defer mu.Unlock()
	st, err := v.stateFor(rec.ID)
	if err != nil {
		return Version{}, err
	}
	category := v.category(st)
	owed, err := v.authorizeOwed(ctx, actor, authz.ActCorrect, audit.ActionCorrect, rec.ID, 0, string(category), true)
	if err != nil {
		return Version{}, err
	}
	defer owed.settle(ctx, v)
	if rec.Category != category {
		return Version{}, fmt.Errorf("%w: category %q -> %q", ErrIdentityChanged, category, rec.Category)
	}
	if rec.MRN != v.names.ID(st.mrn) {
		// Neither MRN goes into the error: it reaches the caller and logs.
		return Version{}, fmt.Errorf("%w: MRN differs from version 1's", ErrIdentityChanged)
	}
	dek, err := v.keys.Get(rec.ID)
	if err != nil {
		return Version{}, err
	}
	return v.commitVersion(ctx, rec, actor, st.count()+1, dek, nil, true, owed)
}

// searchAuthorized checks and audits search permission: the actor may search
// if any of their roles permits ActSearch on any category. The caller holds
// the op gate.
func (v *Vault) searchAuthorized(ctx context.Context, actor string) error {
	allowed := v.auth.Check(actor, authz.ActSearch, "").Allowed
	for _, cat := range ehr.Categories() {
		if allowed {
			break
		}
		allowed = v.auth.Check(actor, authz.ActSearch, string(cat)).Allowed
	}
	outcome := audit.OutcomeAllowed
	if !allowed {
		outcome = audit.OutcomeDenied
	}
	// The keyword itself is PHI-adjacent and is deliberately NOT written to
	// the audit log — only the fact and outcome of the search.
	if err := v.appendAudit(ctx, audit.Event{
		Actor: actor, Action: audit.ActionSearch, Outcome: outcome,
	}); err != nil {
		return err
	}
	if !allowed {
		return fmt.Errorf("%w: %s may not search", ErrDenied, actor)
	}
	return nil
}

// readable keeps the IDs that are live and readable by the actor, sorted —
// per-result visibility enforces minimum-necessary even through search and
// patient listings, decided once per category. It takes no stripe locks:
// liveness comes from the atomic shredded flag, and the category is
// immutable, so concurrent writers cannot corrupt the scan.
func (v *Vault) readable(actor string, hits []string) []string {
	type cand struct {
		id  string
		cat uint32 // names number
	}
	cands := make([]cand, 0, len(hits))
	v.regMu.RLock()
	for _, id := range hits {
		st, ok := v.lookupLocked(id)
		if !ok || st.shredded.Load() {
			continue
		}
		cands = append(cands, cand{id, st.category})
	}
	v.regMu.RUnlock()
	var out []string
	decided := map[uint32]bool{} // category -> readable, for this query
	for _, c := range cands {
		ok, seen := decided[c.cat]
		if !seen {
			ok = v.auth.Check(actor, authz.ActRead, v.names.ID(c.cat)).Allowed
			decided[c.cat] = ok
		}
		if ok {
			out = append(out, c.id)
		}
	}
	slices.Sort(out)
	return out
}

// SearchCtx returns the IDs of records matching keyword that the actor is
// allowed to read — results outside the actor's categories are filtered,
// enforcing minimum-necessary even through search.
func (v *Vault) SearchCtx(ctx context.Context, actor, keyword string) ([]string, error) {
	return v.search(ctx, actor, func(*obs.Span) []string { return v.idx.Search(keyword) })
}

// SearchAllCtx returns the IDs of readable records containing every keyword
// (conjunctive search), with the same authorization and filtering semantics
// as Search.
func (v *Vault) SearchAllCtx(ctx context.Context, actor string, keywords ...string) ([]string, error) {
	return v.search(ctx, actor, func(sp *obs.Span) []string {
		sp.SetUint("keywords", uint64(len(keywords)))
		return v.idx.SearchAll(keywords...)
	})
}

// search is the one body of Search and SearchAll; find queries the index
// inside the "index.search" span, which carries the hit count but never a
// keyword: traces are an unauthenticated debug surface, and query terms are
// PHI-adjacent exactly as the SSE threat model says.
func (v *Vault) search(ctx context.Context, actor string, find func(*obs.Span) []string) (_ []string, err error) {
	ctx, done, err := v.begin(ctx, "search", "")
	defer done(&err)
	if err != nil {
		return nil, err
	}
	if err := v.searchAuthorized(ctx, actor); err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(ctx, "index.search")
	hits := find(sp)
	sp.SetUint("hits", uint64(len(hits)))
	sp.End(nil)
	return v.readable(actor, hits), nil
}

// ShredCtx securely deletes the record: its data key is destroyed, its index
// postings removed, and the destruction is audited and recorded in the
// custody chain. Shred refuses while retention is active or a legal hold is
// in place. The ciphertext remains in the append-only log — permanently
// unreadable — and the Merkle history of the record's existence is
// preserved, as disposition accountability requires.
func (v *Vault) ShredCtx(ctx context.Context, actor, id string) (err error) {
	ctx, done, err := v.begin(ctx, "shred", id)
	defer done(&err)
	if err != nil {
		return err
	}
	mu := v.stripes.forRecord(id)
	mu.Lock()
	defer mu.Unlock()
	st, err := v.stateFor(id)
	if err != nil {
		return err
	}
	if err := v.authorize(ctx, actor, authz.ActShred, audit.ActionDelete, id, 0, string(v.category(st))); err != nil {
		return err
	}
	if err := v.ret.CanDispose(id); err != nil {
		_ = v.appendAudit(ctx, audit.Event{
			Actor: actor, Action: audit.ActionDelete, Record: id,
			Outcome: audit.OutcomeDenied, Detail: err.Error(),
		})
		return err
	}
	return v.commit(ctx, &walEntry{kind: 'S', custody: true, id: id, ver: Version{Author: actor, Timestamp: v.now()}}, nil, nil)
}

// PlaceHoldCtx puts a durable legal hold on the record: disposition is blocked
// until release, the hold survives restarts (WAL-logged and snapshotted),
// and both placement and release are audited. Requires disposition (shred)
// permission — holds govern destruction.
func (v *Vault) PlaceHoldCtx(ctx context.Context, actor, id, reason string) error {
	return v.changeHold(ctx, "place_hold", actor, walEntry{kind: 'H', id: id, reason: reason, placed: v.now()}, "legal hold placed: "+reason)
}

// ReleaseHoldCtx lifts a legal hold; the release is WAL-logged and audited.
func (v *Vault) ReleaseHoldCtx(ctx context.Context, actor, id string) error {
	return v.changeHold(ctx, "release_hold", actor, walEntry{kind: 'R', id: id}, "legal hold released")
}

// changeHold is the one body of PlaceHold and ReleaseHold. Placing a hold
// needs a reason and a live record; releasing one that is not there is a
// no-op.
func (v *Vault) changeHold(ctx context.Context, op, actor string, e walEntry, detail string) (err error) {
	ctx, done, err := v.begin(ctx, op, e.id)
	defer done(&err)
	if err != nil {
		return err
	}
	if e.kind == 'H' && e.reason == "" {
		return fmt.Errorf("core: a legal hold requires a reason")
	}
	mu := v.stripes.forRecord(e.id)
	mu.Lock()
	defer mu.Unlock()
	if e.kind == 'H' {
		if _, err := v.stateFor(e.id); err != nil {
			return err
		}
	}
	if err := v.authorize(ctx, actor, authz.ActShred, audit.ActionPolicy, e.id, 0, ""); err != nil {
		return err
	}
	if err := v.commit(ctx, &e, nil, nil); err != nil {
		return err
	}
	// The hold is committed either way; a failed append wedges meta.wal,
	// the audit log's tail, so the shard's next audited operation answers
	// wedged.
	_ = v.appendAudit(ctx, audit.Event{
		Actor: actor, Action: audit.ActionPolicy, Record: e.id,
		Outcome: audit.OutcomeAllowed, Detail: detail,
	})
	return nil
}

// breakGlass is one shard's part of Cluster.BreakGlassCtx: it grants the
// actor time-boxed emergency access and records the grant in the shard's
// audit trail.
func (v *Vault) breakGlass(ctx context.Context, actor, reason string, duration time.Duration) error {
	g, err := v.auth.BreakGlass(actor, reason, duration)
	if err != nil {
		return err
	}
	return v.appendAudit(ctx, audit.Event{
		Actor:   actor,
		Action:  audit.ActionBreakGlass,
		Outcome: audit.OutcomeAllowed,
		Detail:  fmt.Sprintf("grant issued until %s: %s", g.Expires.Format(time.RFC3339), reason),
	})
}

// AuditEventsCtx returns audit events matching q; the query itself requires
// (and is recorded with) audit permission.
func (v *Vault) AuditEventsCtx(ctx context.Context, actor string, q audit.Query) (_ []audit.Event, err error) {
	ctx, done, err := v.begin(ctx, "audit_events", "")
	defer done(&err)
	if err != nil {
		return nil, err
	}
	if err := v.authorize(ctx, actor, authz.ActAudit, audit.ActionVerify, "", 0, ""); err != nil {
		return nil, err
	}
	return v.aud.Search(q)
}

// ProvenanceCtx returns the record's custody chain; requires audit permission.
func (v *Vault) ProvenanceCtx(ctx context.Context, actor, id string) (_ []provenance.Event, err error) {
	ctx, done, err := v.begin(ctx, "provenance", id)
	defer done(&err)
	if err != nil {
		return nil, err
	}
	if err := v.authorize(ctx, actor, authz.ActAudit, audit.ActionVerify, id, 0, ""); err != nil {
		return nil, err
	}
	return v.prov.Chain(id)
}

// AuditCheckpoint signs and returns a checkpoint of the audit chain; store
// it off-system.
func (v *Vault) AuditCheckpoint() audit.Checkpoint { return v.aud.Checkpoint() }

// VersionCount returns how many versions the live record has. It exposes no
// record content; the backup package uses it to decide incremental
// inclusion without exporting plaintext.
func (v *Vault) VersionCount(id string) (int, error) {
	mu := v.stripes.forRecord(id)
	mu.RLock()
	defer mu.RUnlock()
	st, err := v.stateFor(id)
	if err != nil {
		return 0, err
	}
	return int(st.count()), nil
}

// RecordIDs returns the IDs of live records, sorted.
func (v *Vault) RecordIDs() []string {
	var out []string
	for _, r := range v.registry() {
		if !r.st.shredded.Load() {
			out = append(out, r.id)
		}
	}
	return out
}
