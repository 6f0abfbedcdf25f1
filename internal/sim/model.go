package sim

import (
	"sort"
	"strings"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/index"
	"medvault/internal/provenance"
	"medvault/internal/retention"
)

// errKind classifies an operation outcome for comparison with the vault: it
// is core.Outcome's label, so classify needs no table of its own.
type errKind string

// Outcome classes. eBadInput ("error") covers plain (non-sentinel) argument
// errors: empty hold reasons, empty MRNs.
const (
	eOK        errKind = "ok"
	eInvalid   errKind = "invalid"
	eNotFound  errKind = "not_found"
	eShredded  errKind = "shredded"
	eDenied    errKind = "denied"
	eExists    errKind = "exists"
	eIdentity  errKind = "identity_changed"
	eOnHold    errKind = "on_hold"
	eRetention errKind = "retention_active"
	eBadInput  errKind = "error"
)

// auEvent is the model's view of one audit event: the fields the simulator
// compares (timestamps and chain fields are the audit package's business).
type auEvent struct {
	Actor   string
	Action  audit.Action
	Record  string
	Version uint64
	Outcome audit.Outcome
}

// jEntry is one expected audit event on one shard's chain. At mirrors the
// vault-side event timestamp (the virtual clock at append time); it is never
// compared directly, but it drives the model's prediction of cross-shard
// merge order, which sorts stably by timestamp over shard-order concat.
type jEntry struct {
	ev auEvent
	at time.Time
}

// mVersion is one committed version in the model.
type mVersion struct {
	Body   string
	Title  string
	Author string   // vault actor who committed it (Version.Author)
	Codes  []string // kept so index tokens can be recomputed on reconcile
}

// mRecord is the model's state for one record, kept after shredding just
// like the vault keeps shredded records' metadata.
type mRecord struct {
	MRN      string
	Patient  string
	Category string
	Created  time.Time
	Versions []mVersion
	Shredded bool
	Tokens   map[string]bool // latest version's index tokens; nil once shredded
}

// mDisclosure mirrors core.Disclosure minus the timestamp.
type mDisclosure struct {
	Actor      string
	Action     audit.Action
	Record     string
	Version    uint64
	Outcome    audit.Outcome
	BreakGlass bool
}

// outcome is what the model predicts for one step.
type outcome struct {
	kind errKind
	// Fields below are meaningful when kind == eOK.
	version  uint64        // put/correct/get: committed or returned version number
	body     string        // get/get_version: expected record body
	history  []mVersion    // history: expected version list
	ids      []string      // search/search_all/patient_recs: expected sorted IDs
	discl    []mDisclosure // disclosures: expected ledger
	flexible bool          // bit-rot read: an error is also acceptable
}

func fail(k errKind) outcome { return outcome{kind: k} }

// Model is the executable reference semantics of the vault. It is advanced
// step by step in lockstep with the real vault; every mutation here mirrors
// the externally observable contract of the corresponding vault operation,
// including exactly which audit events the operation appends.
type Model struct {
	name     string // vault system name (VerifyAll audits under it)
	now      time.Time
	shards   int // cluster shard count the model routes journals by (min 1)
	roles    map[string]authz.Role
	staff    map[string][]string
	grants   map[string]time.Time // break-glass expiry by actor; memory-only
	policies map[string]time.Duration
	records  map[string]*mRecord
	holds    map[string]bool
	journals [][]jEntry // expected audit chain per shard, in append order
	// prov is each record's expected custody chain: the type of each event
	// and the ciphertext hash it carries, learned from the Version the vault
	// returns (zero for a shred, and until a landed in-flight op's is seen).
	prov map[string][]provenance.Event
	// acked is each record's acked put, correct, shred and hold ops in ack
	// order: what its persisted ok flight events may name.
	acked map[string][]OpKind
}

// NewModel builds a model for a vault named name whose clock starts at
// start, with the standard roles and the simulator's fixed staff registered.
func NewModel(name string, start time.Time) *Model {
	m := &Model{
		name:     name,
		now:      start.UTC(),
		shards:   1,
		journals: make([][]jEntry, 1),
		roles:    make(map[string]authz.Role),
		staff:    make(map[string][]string),
		grants:   make(map[string]time.Time),
		policies: make(map[string]time.Duration),
		records:  make(map[string]*mRecord),
		holds:    make(map[string]bool),
		prov:     make(map[string][]provenance.Event),
		acked:    make(map[string][]OpKind),
	}
	for _, r := range authz.StandardRoles() {
		m.roles[r.Name] = r
	}
	for actor, role := range Staff() {
		m.staff[actor] = []string{role}
	}
	for _, p := range retention.StandardPolicies() {
		m.policies[p.Category] = p.Period
	}
	return m
}

// setShards sizes the model for an n-shard cluster. Called once, before any
// step executes; with n == 1 (the default) routing degenerates to the
// single-journal model this package started with.
func (m *Model) setShards(n int) {
	if n < 1 {
		n = 1
	}
	m.shards = n
	m.journals = make([][]jEntry, n)
}

// route names the shard a record's audit events land on — the same routing
// the cluster applies to the operation itself, since every shard audits the
// operations it executes.
func (m *Model) route(record string) int {
	return core.ShardOf(record, m.shards)
}

// append adds an expected event to the owning shard's chain: the record's
// shard when the event names a record, otherwise every shard — record-less
// operations (search, break-glass grants, audit-query and disclosure
// decisions, verification summaries) fan out, and each shard audits its own
// leg.
func (m *Model) append(e auEvent) {
	if e.Record == "" {
		m.appendAll(e)
		return
	}
	m.appendShard(m.route(e.Record), e)
}

// appendShard adds an expected event to one specific shard's chain.
func (m *Model) appendShard(s int, e auEvent) {
	m.journals[s] = append(m.journals[s], jEntry{ev: e, at: m.now})
}

// appendAll adds the event to every shard's chain, in shard order.
func (m *Model) appendAll(e auEvent) {
	for s := range m.journals {
		m.appendShard(s, e)
	}
}

// journalFor projects shard s's expected chain to comparable events.
func (m *Model) journalFor(s int) []auEvent {
	out := make([]auEvent, len(m.journals[s]))
	for i, j := range m.journals[s] {
		out[i] = j.ev
	}
	return out
}

// mergedJournal predicts the cluster-level audit query result: per-shard
// chains concatenated in shard order, stably sorted by timestamp — the
// cluster's documented merge rule.
func (m *Model) mergedJournal() []auEvent {
	var all []jEntry
	for s := range m.journals {
		all = append(all, m.journals[s]...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	out := make([]auEvent, len(all))
	for i, j := range all {
		out[i] = j.ev
	}
	return out
}

// Staff returns the simulator's fixed principal→role registration, applied
// to every opened vault and mirrored by the model.
func Staff() map[string]string {
	return map[string]string{
		"dr-house":    "physician",
		"nurse-joy":   "nurse",
		"clerk-bob":   "billing-clerk",
		"officer-kim": "compliance-officer",
		"arch-lee":    "archivist",
	}
}

// check mirrors authz.Authorizer.Check: role grants first, break-glass
// fallback second, deny by default.
func (m *Model) check(actor string, act authz.Action, category string) (allowed, breakGlass bool) {
	for _, rn := range m.staff[actor] {
		role, ok := m.roles[rn]
		if !ok || !role.Actions[act] {
			continue
		}
		if len(role.Categories) > 0 && !role.Categories[category] {
			continue
		}
		return true, false
	}
	if exp, ok := m.grants[actor]; ok && !m.now.After(exp) && breakGlassCovers(act) {
		return true, true
	}
	return false, false
}

// breakGlassCovers mirrors authz.breakGlassCovers: emergency elevation is
// limited to care-delivery actions.
func breakGlassCovers(act authz.Action) bool {
	switch act {
	case authz.ActRead, authz.ActSearch, authz.ActWrite, authz.ActCorrect:
		return true
	}
	return false
}

// authorize mirrors Vault.authorize: it appends the decision event (and the
// paired break-glass event when the access rode a grant) and reports whether
// the action is allowed.
func (m *Model) authorize(actor string, act authz.Action, action audit.Action, record string, version uint64, category string) bool {
	allowed, bg := m.check(actor, act, category)
	out := audit.OutcomeAllowed
	if !allowed {
		out = audit.OutcomeDenied
	}
	m.append(auEvent{actor, action, record, version, out})
	if allowed && bg {
		m.append(auEvent{actor, audit.ActionBreakGlass, record, version, audit.OutcomeAllowed})
	}
	return allowed
}

// probe mirrors Vault.auditProbe: failed lookups are audited with an error
// outcome (on the probed record's shard).
func (m *Model) probe(actor string, action audit.Action, record string, version uint64) {
	m.append(auEvent{actor, action, record, version, audit.OutcomeError})
}

// tokensOf computes the index token set of a record payload, matching what
// the SSE index stores for the latest version (Add replaces postings).
func tokensOf(title, body string, codes []string) map[string]bool {
	text := title + " " + body + " " + strings.Join(codes, " ")
	set := make(map[string]bool)
	for _, w := range index.Tokenize(text) {
		set[w] = true
	}
	return set
}

// validCategory reports whether c names a defined record category.
func validCategory(c string) bool {
	for _, cat := range ehr.Categories() {
		if string(cat) == c {
			return true
		}
	}
	return false
}

// ack logs step s as acked for its record, with the custody event of that
// type when it has one ("" for a hold op).
func (m *Model) ack(s Step, custody provenance.EventType) {
	m.acked[s.Record] = append(m.acked[s.Record], s.Op)
	if custody != "" {
		m.prov[s.Record] = append(m.prov[s.Record], provenance.Event{Type: custody})
	}
}

// learnHash records the ciphertext hash of the version an acked put or
// correction returned on the record's newest custody event.
func (m *Model) learnHash(id string, h [32]byte) {
	chain := m.prov[id]
	chain[len(chain)-1].ContentHash = h
}

// --- per-operation semantics ---

// put mirrors Vault.PutCtx.
func (m *Model) put(s Step) outcome {
	if s.Record == "" || s.MRN == "" || s.Category == "" || s.Actor == "" || !validCategory(s.Category) {
		return fail(eInvalid)
	}
	if !m.authorize(s.Actor, authz.ActWrite, audit.ActionCreate, s.Record, 1, s.Category) {
		return fail(eDenied)
	}
	if r, ok := m.records[s.Record]; ok {
		if r.Shredded {
			return fail(eShredded)
		}
		return fail(eExists)
	}
	created := m.now.Add(-time.Duration(s.Backdate) * time.Hour)
	m.records[s.Record] = &mRecord{
		MRN:      s.MRN,
		Patient:  s.Patient,
		Category: s.Category,
		Created:  created,
		Versions: []mVersion{{Body: s.Body, Title: s.Title, Author: s.Actor, Codes: s.Codes}},
		Tokens:   tokensOf(s.Title, s.Body, s.Codes),
	}
	m.ack(s, provenance.EventCreated)
	return outcome{kind: eOK, version: 1}
}

// get mirrors Vault.GetCtx.
func (m *Model) get(s Step) outcome {
	r, ok := m.records[s.Record]
	if !ok {
		m.probe(s.Actor, audit.ActionRead, s.Record, 0)
		return fail(eNotFound)
	}
	if r.Shredded {
		m.probe(s.Actor, audit.ActionRead, s.Record, 0)
		return fail(eShredded)
	}
	latest := uint64(len(r.Versions))
	if !m.authorize(s.Actor, authz.ActRead, audit.ActionRead, s.Record, latest, r.Category) {
		return fail(eDenied)
	}
	return outcome{kind: eOK, version: latest, body: r.Versions[latest-1].Body, flexible: s.Rot}
}

// getVersion mirrors Vault.GetVersionCtx.
func (m *Model) getVersion(s Step) outcome {
	r, ok := m.records[s.Record]
	switch {
	case !ok:
		m.probe(s.Actor, audit.ActionRead, s.Record, s.Version)
		return fail(eNotFound)
	case r.Shredded:
		m.probe(s.Actor, audit.ActionRead, s.Record, s.Version)
		return fail(eShredded)
	case s.Version == 0 || s.Version > uint64(len(r.Versions)):
		m.probe(s.Actor, audit.ActionRead, s.Record, s.Version)
		return fail(eNotFound)
	}
	if !m.authorize(s.Actor, authz.ActRead, audit.ActionRead, s.Record, s.Version, r.Category) {
		return fail(eDenied)
	}
	return outcome{kind: eOK, version: s.Version, body: r.Versions[s.Version-1].Body, flexible: s.Rot}
}

// history mirrors Vault.HistoryCtx.
func (m *Model) history(s Step) outcome {
	r, ok := m.records[s.Record]
	if !ok {
		m.probe(s.Actor, audit.ActionRead, s.Record, 0)
		return fail(eNotFound)
	}
	if r.Shredded {
		m.probe(s.Actor, audit.ActionRead, s.Record, 0)
		return fail(eShredded)
	}
	if !m.authorize(s.Actor, authz.ActRead, audit.ActionRead, s.Record, 0, r.Category) {
		return fail(eDenied)
	}
	return outcome{kind: eOK, history: append([]mVersion(nil), r.Versions...)}
}

// correct mirrors Vault.CorrectCtx. Note the asymmetries it preserves: missing
// and shredded records are NOT audit-probed (unlike Get), and authorization
// is checked against the record's stored category, not the payload's.
func (m *Model) correct(s Step) outcome {
	if s.Record == "" || s.MRN == "" || s.Category == "" || s.Actor == "" || !validCategory(s.Category) {
		return fail(eInvalid)
	}
	r, ok := m.records[s.Record]
	if !ok {
		return fail(eNotFound)
	}
	if r.Shredded {
		return fail(eShredded)
	}
	if !m.authorize(s.Actor, authz.ActCorrect, audit.ActionCorrect, s.Record, 0, r.Category) {
		return fail(eDenied)
	}
	if s.Category != r.Category || s.MRN != r.MRN {
		return fail(eIdentity)
	}
	r.Versions = append(r.Versions, mVersion{Body: s.Body, Title: s.Title, Author: s.Actor, Codes: s.Codes})
	r.Tokens = tokensOf(s.Title, s.Body, s.Codes)
	m.ack(s, provenance.EventCorrected)
	return outcome{kind: eOK, version: uint64(len(r.Versions))}
}

// searchAllowed mirrors Vault.searchAuthorized's decision: any role (or
// grant) permitting search on any category, the unscoped check included.
func (m *Model) searchAllowed(actor string) bool {
	if ok, _ := m.check(actor, authz.ActSearch, ""); ok {
		return true
	}
	for _, cat := range ehr.Categories() {
		if ok, _ := m.check(actor, authz.ActSearch, string(cat)); ok {
			return true
		}
	}
	return false
}

// matches reports whether the live record's token set contains the
// normalized keyword.
func (r *mRecord) matches(keyword string) bool {
	return r.Tokens[index.NormalizeQuery(keyword)]
}

// searchHits mirrors Vault.filterSearchHits over the model: live records
// matching per match, readable by actor, sorted.
func (m *Model) searchHits(actor string, match func(*mRecord) bool) []string {
	ids := []string{}
	for id, r := range m.records {
		if r.Shredded || !match(r) {
			continue
		}
		if ok, _ := m.check(actor, authz.ActRead, r.Category); ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// search mirrors Vault.SearchCtx (one keyword) and SearchAllCtx (conjunction).
func (m *Model) search(s Step, conjunctive bool) outcome {
	allowed := m.searchAllowed(s.Actor)
	out := audit.OutcomeAllowed
	if !allowed {
		out = audit.OutcomeDenied
	}
	m.append(auEvent{s.Actor, audit.ActionSearch, "", 0, out})
	if !allowed {
		return fail(eDenied)
	}
	ids := m.searchHits(s.Actor, func(r *mRecord) bool {
		if !conjunctive {
			return r.matches(s.Keywords[0])
		}
		for _, kw := range s.Keywords {
			if !r.matches(kw) {
				return false
			}
		}
		return true
	})
	return outcome{kind: eOK, ids: ids}
}

// expiresAt returns when the record's retention period ends.
func (m *Model) expiresAt(r *mRecord) time.Time {
	return r.Created.Add(m.policies[r.Category])
}

// shred mirrors Vault.ShredCtx.
func (m *Model) shred(s Step) outcome {
	r, ok := m.records[s.Record]
	if !ok {
		return fail(eNotFound)
	}
	if r.Shredded {
		return fail(eShredded)
	}
	if !m.authorize(s.Actor, authz.ActShred, audit.ActionDelete, s.Record, 0, r.Category) {
		return fail(eDenied)
	}
	if m.holds[s.Record] {
		m.append(auEvent{s.Actor, audit.ActionDelete, s.Record, 0, audit.OutcomeDenied})
		return fail(eOnHold)
	}
	if m.now.Before(m.expiresAt(r)) {
		m.append(auEvent{s.Actor, audit.ActionDelete, s.Record, 0, audit.OutcomeDenied})
		return fail(eRetention)
	}
	r.Shredded = true
	r.Tokens = nil
	delete(m.holds, s.Record)
	m.ack(s, provenance.EventShredded)
	return outcome{kind: eOK}
}

// placeHold mirrors Vault.PlaceHoldCtx.
func (m *Model) placeHold(s Step) outcome {
	if s.Reason == "" {
		return fail(eBadInput)
	}
	r, ok := m.records[s.Record]
	if !ok {
		return fail(eNotFound)
	}
	if r.Shredded {
		return fail(eShredded)
	}
	if !m.authorize(s.Actor, authz.ActShred, audit.ActionPolicy, s.Record, 0, "") {
		return fail(eDenied)
	}
	m.holds[s.Record] = true
	m.append(auEvent{s.Actor, audit.ActionPolicy, s.Record, 0, audit.OutcomeAllowed})
	m.ack(s, "")
	return outcome{kind: eOK}
}

// releaseHold mirrors Vault.ReleaseHoldCtx — which deliberately has no
// existence check: releasing a hold that isn't there (or a record that
// isn't) succeeds and is audited.
func (m *Model) releaseHold(s Step) outcome {
	if !m.authorize(s.Actor, authz.ActShred, audit.ActionPolicy, s.Record, 0, "") {
		return fail(eDenied)
	}
	delete(m.holds, s.Record)
	m.append(auEvent{s.Actor, audit.ActionPolicy, s.Record, 0, audit.OutcomeAllowed})
	m.ack(s, "")
	return outcome{kind: eOK}
}

// breakGlass mirrors Cluster.BreakGlassCtx.
func (m *Model) breakGlass(s Step) outcome {
	d := time.Duration(s.Minutes) * time.Minute
	if s.Reason == "" || d <= 0 || d > authz.MaxBreakGlass {
		return fail(eInvalid)
	}
	if _, ok := m.staff[s.Actor]; !ok {
		return fail(eInvalid)
	}
	m.grants[s.Actor] = m.now.Add(d)
	m.append(auEvent{s.Actor, audit.ActionBreakGlass, "", 0, audit.OutcomeAllowed})
	return outcome{kind: eOK}
}

// revoke mirrors Authorizer.Revoke: unaudited, never fails.
func (m *Model) revoke(s Step) outcome {
	delete(m.grants, s.Actor)
	return outcome{kind: eOK}
}

// disclosures mirrors Vault.AccountingOfDisclosures.
func (m *Model) disclosures(s Step) outcome {
	if !m.authorize(s.Actor, authz.ActAudit, audit.ActionVerify, "", 0, "") {
		return fail(eDenied)
	}
	if s.MRN == "" {
		return fail(eBadInput)
	}
	known := false
	for _, r := range m.records {
		if r.MRN == s.MRN {
			known = true
			break
		}
	}
	if !known {
		return fail(eNotFound)
	}
	return outcome{kind: eOK, discl: m.disclosuresFor(s.MRN)}
}

// disclosuresFor reconstructs the expected accounting from the model
// journals using the same algorithm as the vault: disclosure-class actions
// on the patient's records, with break-glass accesses marked by the paired
// event at the adjacent position. Adjacency is shard-local — both events of
// a break-glass pair name the record, so they land on the same shard, where
// journal positions equal audit sequence numbers. Per-shard accountings are
// then merged exactly like the cluster merges them: concatenated in shard
// order, stably sorted by timestamp.
func (m *Model) disclosuresFor(mrn string) []mDisclosure {
	recs := make(map[string]bool)
	for id, r := range m.records {
		if r.MRN == mrn {
			recs[id] = true
		}
	}
	type tDisclosure struct {
		d  mDisclosure
		at time.Time
	}
	var all []tDisclosure
	for s := range m.journals {
		bg := make(map[int]bool)
		for i, j := range m.journals[s] {
			if j.ev.Action == audit.ActionBreakGlass && j.ev.Record != "" {
				bg[i-1] = true
			}
		}
		for i, j := range m.journals[s] {
			e := j.ev
			if !recs[e.Record] {
				continue
			}
			switch e.Action {
			case audit.ActionRead, audit.ActionCreate, audit.ActionCorrect,
				audit.ActionDelete, audit.ActionMigrateOut, audit.ActionMigrateIn,
				audit.ActionBackup, audit.ActionRestore:
				all = append(all, tDisclosure{mDisclosure{e.Actor, e.Action, e.Record, e.Version, e.Outcome, bg[i]}, j.at})
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	out := make([]mDisclosure, len(all))
	for i, t := range all {
		out[i] = t.d
	}
	return out
}

// sanitize mirrors Cluster.SanitizeMedia: each shard authorizes the pass on
// its own chain and, when allowed, appends its summary event. No record
// changes: a shred already made the record unreadable, and the pass only
// removes its bytes from the medium.
func (m *Model) sanitize(s Step) outcome {
	if !m.authorize(s.Actor, authz.ActShred, audit.ActionDelete, "", 0, "") {
		return fail(eDenied)
	}
	m.appendAll(auEvent{s.Actor, audit.ActionDelete, "", 0, audit.OutcomeAllowed})
	return outcome{kind: eOK}
}

// patientRecords mirrors Vault.PatientRecordsCtx: live records with the MRN
// that the actor may read, sorted. It never errors and never audits.
func (m *Model) patientRecords(s Step) outcome {
	ids := m.searchHits(s.Actor, func(r *mRecord) bool { return r.MRN == s.MRN })
	return outcome{kind: eOK, ids: ids}
}

// advance moves the model clock (the runner advances the vault's virtual
// clock by the same amount).
func (m *Model) advance(s Step) outcome {
	m.now = m.now.Add(time.Duration(s.Hours) * time.Hour)
	return outcome{kind: eOK}
}

// --- whole-vault observables for the deep check ---

// liveIDs returns the live record IDs, sorted (RecordIDs / Len).
func (m *Model) liveIDs() []string {
	ids := []string{}
	for id, r := range m.records {
		if !r.Shredded {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// allIDs returns every record ID the model has seen, shredded included.
func (m *Model) allIDs() []string {
	ids := make([]string, 0, len(m.records))
	for id := range m.records {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// mrns returns the distinct MRNs across all records, sorted.
func (m *Model) mrns() []string {
	seen := make(map[string]bool)
	for _, r := range m.records {
		seen[r.MRN] = true
	}
	out := make([]string, 0, len(seen))
	for mrn := range seen {
		out = append(out, mrn)
	}
	sort.Strings(out)
	return out
}

// totalVersions counts committed versions across all records (shredded
// included) — the Merkle commitment log size and VerifyAll's VersionsChecked.
func (m *Model) totalVersions() int {
	n := 0
	for _, r := range m.records {
		n += len(r.Versions)
	}
	return n
}

// expired returns live records past retention and not under hold, sorted —
// the expected retention sweep work list.
func (m *Model) expired() []string {
	ids := []string{}
	for id, r := range m.records {
		if r.Shredded || m.holds[id] {
			continue
		}
		if !m.now.Before(m.expiresAt(r)) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// heldIDs returns the records under legal hold, sorted.
func (m *Model) heldIDs() []string {
	ids := []string{}
	for id := range m.holds {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// noteVaultEvent appends an event the vault writes outside authorize
// (VerifyAll's own summary event, audit queries' decision events) to every
// shard — per-shard instances of these go through appendShard directly.
func (m *Model) noteVaultEvent(e auEvent) { m.appendAll(e) }

// --- crash / restart reconciliation ---

// clearGrants models a restart: break-glass grants are memory-only and do
// not survive a remount.
func (m *Model) clearGrants() { m.grants = make(map[string]time.Time) }

// resyncJournal reconciles shard s's expected audit chain with the chain
// that actually survived a crash or restart. The audit store's tail is not
// fsynced per event, so a power cut may truncate it; what survived must be
// a prefix of what the model expected, and the model adopts the truncation.
// It returns the mismatch position and false if the survivor is NOT a
// prefix — that is a real divergence, not crash damage.
func (m *Model) resyncJournal(s int, actual []auEvent) (int, bool) {
	journal := m.journals[s]
	if len(actual) > len(journal) {
		return len(journal), false
	}
	for i, e := range actual {
		if e != journal[i].ev {
			return i, false
		}
	}
	m.journals[s] = journal[:len(actual):len(actual)]
	return 0, true
}

// The drop/pop/unshred/setHold helpers revert a speculative mutation when a
// faulted operation turns out not to have landed (the runner probes the
// restarted vault to find out which way the ambiguity resolved).

// unack reverts the newest acked op of id.
func (m *Model) unack(id string) {
	m.acked[id] = m.acked[id][:len(m.acked[id])-1]
}

// dropRecord reverts a put that did not land.
func (m *Model) dropRecord(id string) {
	delete(m.records, id)
	delete(m.prov, id)
	delete(m.holds, id)
	m.unack(id)
}

// popVersion reverts a correction that did not land.
func (m *Model) popVersion(id string) {
	r := m.records[id]
	r.Versions = r.Versions[:len(r.Versions)-1]
	last := r.Versions[len(r.Versions)-1]
	r.Tokens = tokensOf(last.Title, last.Body, last.Codes)
	m.prov[id] = m.prov[id][:len(m.prov[id])-1]
	m.unack(id)
}

// unshred reverts a shred that did not land.
func (m *Model) unshred(id string) {
	r := m.records[id]
	r.Shredded = false
	last := r.Versions[len(r.Versions)-1]
	r.Tokens = tokensOf(last.Title, last.Body, last.Codes)
	m.prov[id] = m.prov[id][:len(m.prov[id])-1]
	m.unack(id)
}

// setHold resolves a faulted hold op on id by what the restarted vault holds
// (holds are WAL-durable, so the vault is the source of truth): when that
// differs from the model's speculative state, the op did not land.
func (m *Model) setHold(id string, held bool) {
	if m.holds[id] == held {
		return
	}
	if held {
		m.holds[id] = true
	} else {
		delete(m.holds, id)
	}
	m.unack(id)
}
