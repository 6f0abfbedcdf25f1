package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/blockstore"
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
	if _, err := v.aud.AppendAllCtx(ctx, events); err != nil {
		return err
	}
	if !d.Allowed {
		return fmt.Errorf("%w: %s %s on %q: %s", ErrDenied, actor, act, recordID, d.Reason)
	}
	return nil
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

// auditProbe records a failed lookup: unknown-record or unknown-version
// probing is signal, so the attempt is written even though nothing else is.
func (v *Vault) auditProbe(ctx context.Context, actor string, action audit.Action, id string, version uint64, err error) {
	_, _ = v.aud.AppendCtx(ctx, audit.Event{
		Actor: actor, Action: action, Record: id, Version: version,
		Outcome: audit.OutcomeError, Detail: err.Error(),
	})
}

// commitVersion seals rec as the given version of its record under dek, makes
// the ciphertext durable, and commits the version's 'V' entry; wrappedDEK is
// the record's minted key blob on version 1 and nil afterwards. The caller
// holds the record's stripe exclusively. All of it — AES-GCM seal, blockstore
// append, both fsync waits — runs outside the commit sequencer.
func (v *Vault) commitVersion(ctx context.Context, rec ehr.Record, author string, number uint64, dek vcrypto.Key, wrappedDEK []byte) (Version, error) {
	ct, err := vcrypto.SealCtx(ctx, dek, ehr.Encode(rec), sealAAD(rec.ID, number))
	if err != nil {
		return Version{}, fmt.Errorf("core: sealing %s v%d: %w", rec.ID, number, err)
	}
	ref, err := blockstore.AppendCtx(ctx, v.blocks, ct)
	if err != nil {
		return Version{}, fmt.Errorf("core: storing %s v%d: %w", rec.ID, number, err)
	}
	e := walEntry{
		kind: 'V', id: rec.ID, category: rec.Category, mrn: rec.MRN, created: rec.CreatedAt, wrappedDEK: wrappedDEK,
		ver: Version{Number: number, Author: author, Timestamp: v.now(), Ref: ref, CtHash: vcrypto.Hash(ct)},
	}
	// The WAL entry references this ciphertext by offset, and replay reads
	// it back. Make the ciphertext durable before the intent can become
	// durable, or a crash after the WAL fsync acks a version whose bytes
	// only ever existed in the page cache.
	if err := blockstore.SyncCtx(ctx, v.blocks); err != nil {
		return Version{}, fmt.Errorf("core: syncing ciphertext of %s v%d: %w", rec.ID, number, err)
	}
	if err := v.commit(ctx, &e, &rec); err != nil {
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
	if err := v.authorize(ctx, actor, authz.ActWrite, audit.ActionCreate, rec.ID, 1, string(rec.Category)); err != nil {
		return Version{}, err
	}
	mu := v.stripes.forRecord(rec.ID)
	mu.Lock()
	defer mu.Unlock()
	dek, wrapped, err := v.mintFor(rec.ID, rec.Category)
	if err != nil {
		return Version{}, err
	}
	ver, err := v.commitVersion(ctx, rec, actor, 1, dek, wrapped)
	if err != nil {
		return Version{}, err
	}
	// The version is committed (stored, WAL-logged, Merkle-committed,
	// indexed) and visible; from here the Put has happened, and a custody
	// failure is a post-commit warning, not an error.
	v.custodyAfterCommit(ctx, audit.ActionCreate, provenance.EventCreated, actor, rec.ID, ver.CtHash)
	return ver, nil
}

var metProvenanceErrors = obs.Default.Counter("medvault_provenance_append_errors_total",
	"Custody-chain appends that failed after the operation's state was already committed.")

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

// readVersion reads and verifies one version's content. Caller holds at
// least the record's stripe read lock.
//
// The block cache short-circuits the blockstore read without weakening the
// integrity check: an entry is only filled after its bytes hashed to
// ver.CtHash, and a hit is only served when the fill-time hash equals the
// CtHash this version demands — the same 32-byte comparison either way.
func (v *Vault) readVersion(ctx context.Context, id string, ver Version) (_ ehr.Record, err error) {
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
		ct, err = blockstore.ReadCtx(ctx, v.blocks, ver.Ref)
		if err != nil {
			return ehr.Record{}, fmt.Errorf("%w: %s v%d: %v", ErrTampered, id, ver.Number, err)
		}
		if vcrypto.Hash(ct) != ver.CtHash {
			return ehr.Record{}, fmt.Errorf("%w: %s v%d: ciphertext hash mismatch", ErrTampered, id, ver.Number)
		}
		v.bcache.put(ver.Ref, ver.CtHash, ct)
	}
	return v.openVersion(ctx, id, ver, ct)
}

// openVersion decrypts and decodes one version's ciphertext.
func (v *Vault) openVersion(ctx context.Context, id string, ver Version, ct []byte) (ehr.Record, error) {
	dek, err := v.keys.GetCtx(ctx, id)
	if err != nil {
		if errors.Is(err, vcrypto.ErrShredded) {
			return ehr.Record{}, fmt.Errorf("%w: %s", ErrShredded, id)
		}
		return ehr.Record{}, err
	}
	pt, err := vcrypto.OpenCtx(ctx, dek, ct, sealAAD(id, ver.Number))
	if err != nil {
		return ehr.Record{}, fmt.Errorf("%w: %s v%d: %v", ErrTampered, id, ver.Number, err)
	}
	return ehr.Decode(pt)
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
	rec, err := v.readVersion(ctx, id, target)
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
	if err := v.authorize(ctx, actor, authz.ActCorrect, audit.ActionCorrect, rec.ID, 0, string(category)); err != nil {
		return Version{}, err
	}
	if rec.Category != category {
		return Version{}, fmt.Errorf("%w: category %q -> %q", ErrIdentityChanged, category, rec.Category)
	}
	dek, err := v.keys.Get(rec.ID)
	if err != nil {
		return Version{}, err
	}
	ver, err := v.commitVersion(ctx, rec, actor, st.count()+1, dek, nil)
	if err != nil {
		return Version{}, err
	}
	// Committed and visible: the correction must not be reported as failed
	// when it exists, so a custody failure is a post-commit warning.
	v.custodyAfterCommit(ctx, audit.ActionCorrect, provenance.EventCorrected, actor, rec.ID, ver.CtHash)
	return ver, nil
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
	if _, err := v.aud.AppendCtx(ctx, audit.Event{
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
// patient listings. It takes no stripe locks: liveness comes from the atomic
// shredded flag, and the category is immutable, so concurrent writers cannot
// corrupt the scan.
func (v *Vault) readable(actor string, hits []string) []string {
	type cand struct {
		id  string
		cat string
	}
	cands := make([]cand, 0, len(hits))
	v.regMu.RLock()
	for _, id := range hits {
		st, ok := v.lookupLocked(id)
		if !ok || st.shredded.Load() {
			continue
		}
		cands = append(cands, cand{id, string(v.category(st))})
	}
	v.regMu.RUnlock()
	var out []string
	for _, c := range cands {
		if v.auth.Check(actor, authz.ActRead, c.cat).Allowed {
			out = append(out, c.id)
		}
	}
	sort.Strings(out)
	return out
}

// SearchCtx returns the IDs of records matching keyword that the actor is
// allowed to read — results outside the actor's categories are filtered,
// enforcing minimum-necessary even through search.
func (v *Vault) SearchCtx(ctx context.Context, actor, keyword string) ([]string, error) {
	return v.search(ctx, actor, func(ctx context.Context) []string { return v.idx.SearchCtx(ctx, keyword) })
}

// SearchAllCtx returns the IDs of readable records containing every keyword
// (conjunctive search), with the same authorization and filtering semantics
// as Search.
func (v *Vault) SearchAllCtx(ctx context.Context, actor string, keywords ...string) ([]string, error) {
	return v.search(ctx, actor, func(ctx context.Context) []string { return v.idx.SearchAllCtx(ctx, keywords...) })
}

// search is the one body of Search and SearchAll; find queries the index.
func (v *Vault) search(ctx context.Context, actor string, find func(context.Context) []string) (_ []string, err error) {
	ctx, done, err := v.begin(ctx, "search", "")
	defer done(&err)
	if err != nil {
		return nil, err
	}
	if err := v.searchAuthorized(ctx, actor); err != nil {
		return nil, err
	}
	return v.readable(actor, find(ctx)), nil
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
		_, _ = v.aud.AppendCtx(ctx, audit.Event{
			Actor: actor, Action: audit.ActionDelete, Record: id,
			Outcome: audit.OutcomeDenied, Detail: err.Error(),
		})
		return err
	}
	if err := v.commit(ctx, &walEntry{kind: 'S', id: id}, nil); err != nil {
		return err
	}
	// The key is destroyed and the shred is WAL-logged — it has happened;
	// a custody failure here is the same post-commit warning as in Put.
	v.custodyAfterCommit(ctx, audit.ActionDelete, provenance.EventShredded, actor, id, [32]byte{})
	return nil
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
	if err := v.commit(ctx, &e, nil); err != nil {
		return err
	}
	_, _ = v.aud.AppendCtx(ctx, audit.Event{
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
	_, err = v.aud.AppendCtx(ctx, audit.Event{
		Actor:   actor,
		Action:  audit.ActionBreakGlass,
		Outcome: audit.OutcomeAllowed,
		Detail:  fmt.Sprintf("grant issued until %s: %s", g.Expires.Format(time.RFC3339), reason),
	})
	return err
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
