package sim

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/merkle"
	"medvault/internal/provenance"
	"medvault/internal/repl"
	"medvault/internal/vcrypto"
)

// simEpoch is the virtual time every run starts at. It is part of the trace
// contract: replays reconstruct the same clock from the same epoch.
var simEpoch = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

// ctx is what every simulated operation runs under: a run has no deadline
// and no trace to thread through the vault.
var ctx = context.Background()

// auditor is the fixed compliance-officer principal the deep check and
// crash-resync run their queries as.
const auditor = "officer-kim"

// Divergence is the first point at which the vault and the reference model
// disagree — the simulator's failure report.
type Divergence struct {
	Index int // step index within the trace
	Step  Step
	Msg   string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("step %d %s: %s", d.Index, d.Step, d.Msg)
}

// RunOpts configures a generated run.
type RunOpts struct {
	Seed     int64
	Ops      int
	Workers  int  // logical writers the generator interleaves (min 1)
	Shards   int  // cluster shard count; <= 1 runs the classic single vault
	Durable  bool // vault on the engine's faultfs.Mem, with crash/fault steps
	Failover bool // durable mode: crash steps promote a warm follower instead
	Name     string
	Logf     func(format string, args ...any) // nil = silent
}

// Run generates a seeded op sequence and executes it against vault and model
// in lockstep. It returns the full trace (also on success, for hashing) and
// the first divergence, nil if none.
func Run(opts RunOpts) (Trace, *Divergence) {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Name == "" {
		opts.Name = "medsim"
	}
	// Shards <= 1 is recorded as 0 so pre-cluster traces keep their hashes:
	// the field marshals omitempty and the engine treats both as one shard.
	shards := opts.Shards
	if shards <= 1 {
		shards = 0
	}
	plan := Plan{Format: traceFormat, Seed: opts.Seed, Workers: opts.Workers, Shards: shards,
		Durable: opts.Durable, Failover: opts.Failover && opts.Durable, Name: opts.Name}
	t := Trace{Plan: plan}
	e, err := newEngine(plan, opts.Logf)
	if err != nil {
		return t, &Divergence{Index: -1, Msg: "opening vault: " + err.Error()}
	}
	defer e.hangUp()
	g := newGen(plan)
	for i := 0; i < opts.Ops; i++ {
		s := g.next(e.model)
		t.Steps = append(t.Steps, s)
		if d := e.exec(i, s); d != nil {
			return t, d
		}
	}
	// Always end on a deep check so a run that only drifted silently still
	// fails, and the final audit/provenance/disclosure state is compared.
	final := Step{Op: OpVerify}
	t.Steps = append(t.Steps, final)
	return t, e.exec(len(t.Steps)-1, final)
}

// Replay executes a recorded trace — the repro path for shrunk failures.
func Replay(t Trace, logf func(format string, args ...any)) *Divergence {
	e, err := newEngine(t.Plan, logf)
	if err != nil {
		return &Divergence{Index: -1, Msg: "opening vault: " + err.Error()}
	}
	defer e.hangUp()
	for i, s := range t.Steps {
		if d := e.exec(i, s); d != nil {
			return d
		}
	}
	return nil
}

// divAt returns the constructor of step i's divergences.
func divAt(i int, s Step) func(format string, args ...any) *Divergence {
	return func(format string, args ...any) *Divergence {
		return &Divergence{Index: i, Step: s, Msg: fmt.Sprintf(format, args...)}
	}
}

// schedInjector is the run's programmable fault source: an absolute
// mutating-op index to fail with ENOSPC, an index to cut power at (used to
// crash mid-Close), a one-shot bit-rot arm for ciphertext reads, and a
// torture scenario's strike.
type schedInjector struct {
	enospcAt int // mutating-op index to fail with ErrNoSpace; -1 disarmed
	crashAt  int // mutating-op index to latch a power cut at; -1 disarmed
	rot      bool
	skip     int    // armed rot: ciphertext reads to let through first
	rotted   string // path of the last ciphertext read the rot corrupted
	fired    bool   // an ENOSPC fault fired (silent failures count too)
	strike   faultfs.Injector
}

// ciphertextFile reports whether path is a file a version's ciphertext is
// read from: a block store segment, or meta.wal until checkpoint.
func ciphertextFile(path string) bool {
	return strings.Contains(path, "/blocks/") || strings.Contains(path, "/meta.wal")
}

func (i *schedInjector) inject(op faultfs.Op) *faultfs.Fault {
	if i.strike != nil {
		if f := i.strike(op); f != nil {
			return f
		}
	}
	if op.Kind == faultfs.OpRead {
		if i.rot && ciphertextFile(op.Path) {
			if i.skip > 0 {
				i.skip--
				return nil
			}
			i.rot, i.rotted = false, op.Path
			return &faultfs.Fault{CorruptRead: true}
		}
		return nil
	}
	if op.Index < 0 {
		return nil
	}
	if i.crashAt >= 0 && op.Index >= i.crashAt {
		return &faultfs.Fault{Crash: true}
	}
	if i.enospcAt >= 0 && op.Index >= i.enospcAt {
		i.enospcAt = -1
		i.fired = true
		return &faultfs.Fault{Err: faultfs.ErrNoSpace}
	}
	return nil
}

// engine holds one run's live state: the model, the vault cluster, the
// simulated disk, and the off-system memory (remembered heads and
// checkpoints, kept per shard — each shard's logs are a separate trust
// domain, so its extension proofs only make sense against its own history).
type engine struct {
	plan   Plan
	model  *Model
	logf   func(format string, args ...any)
	shards int // effective shard count (plan.Shards, min 1)

	vc     *clock.Virtual
	master [32]byte
	mem    *faultfs.Mem
	faulty *faultfs.Faulty
	inj    *schedInjector
	v      *core.Cluster // nil after a close step, until the next step reopens it
	strike strike        // a torture scenario's fault, armed on the next open only

	// Failover mode: the capture streams every committed fs op to a warm
	// follower whose replica disk takes over when the primary dies.
	fmem    *faultfs.Mem
	fol     *repl.Follower
	link    *repl.Pipe
	capture *repl.Capture

	heads [][]merkle.SignedTreeHead // indexed by shard
	cps   [][]audit.Checkpoint      // indexed by shard
}

// strike is the fault a torture scenario arms on a generation's medium and,
// in failover mode, on its replication link.
type strike struct {
	inject faultfs.Injector
	link   func(*repl.Pipe)
}

func newEngine(plan Plan, logf func(format string, args ...any)) (*engine, error) {
	e := makeEngine(plan, simEpoch, strike{}, logf)
	return e, e.open()
}

// makeEngine builds an unopened engine whose clock starts at epoch and whose
// first generation runs under first.
func makeEngine(plan Plan, epoch time.Time, first strike, logf func(format string, args ...any)) *engine {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	shards := plan.Shards
	if shards < 1 {
		shards = 1
	}
	e := &engine{
		plan:   plan,
		model:  NewModel(plan.Name, epoch),
		logf:   logf,
		shards: shards,
		strike: first,
		vc:     clock.NewVirtual(epoch),
		master: sha256.Sum256([]byte(fmt.Sprintf("medsim-master/%s/%d", plan.Name, plan.Seed))),
		heads:  make([][]merkle.SignedTreeHead, shards),
		cps:    make([][]audit.Checkpoint, shards),
	}
	e.model.setShards(shards)
	if plan.Durable {
		e.mem = faultfs.NewMem()
	}
	return e
}

// shard returns the per-shard vault handle for direct chain/head access.
func (e *engine) shard(s int) *core.Vault { return e.v.Shard(s) }

// open mounts (or remounts) the vault over the current disk image with a
// fresh fault wrapper, and re-registers the staff — principals are
// deliberately not persisted by the vault, mirroring an identity provider.
func (e *engine) open() error {
	master, err := vcrypto.KeyFromBytes(e.master[:])
	if err != nil {
		return err
	}
	cfg := core.Config{Name: e.plan.Name, Master: master, Clock: e.vc}
	e.hangUp() // the previous generation's primary, if any, is gone
	first := e.strike
	e.strike = strike{}
	if e.plan.Durable {
		e.inj = &schedInjector{enospcAt: -1, crashAt: -1, strike: first.inject}
		e.faulty = faultfs.NewFaulty(e.mem, e.inj.inject)
		cfg.Dir = "vault"
		cfg.FS = e.faulty
		if e.plan.Failover {
			// Vault → capture → faulty → mem: only ops the (possibly
			// faulted) medium accepts are shipped, so the follower tracks
			// exactly what the primary's disk committed. The handshake
			// resyncs the fresh follower to the current disk image.
			e.fmem = faultfs.NewMem()
			fol, err := repl.NewFollower(e.fmem, "vault")
			if err != nil {
				return err
			}
			e.fol = fol
			e.link = repl.NewPipe(fol)
			if first.link != nil {
				first.link(e.link)
			}
			cap, err := repl.NewCapture(e.faulty, repl.Config{
				Session: repl.NewSession(e.link, nil, e.mem, "vault"),
				Root:    "vault",
				Raw:     e.mem,
				Strict:  true,
			})
			if err != nil {
				e.hangUp()
				return err
			}
			e.capture = cap
			cfg.FS = cap
		}
	}
	cfg.Shards = e.shards
	v, err := core.Open(cfg)
	if err != nil {
		return err
	}
	for _, r := range authz.StandardRoles() {
		v.Authz().DefineRole(r)
	}
	for actor, role := range Staff() {
		if err := v.Authz().AddPrincipal(actor, role); err != nil {
			return err
		}
	}
	e.v = v
	return nil
}

// exec runs one step against model and vault and cross-checks the result.
func (e *engine) exec(i int, s Step) *Divergence {
	want, d := e.run(i, s)
	if e.plan.Durable && e.inj.fired {
		// An injected fault fired inside this step. Whether the operation
		// half-landed — or wedged the audit log short of the events the model
		// expects — is ambiguous from the return value alone (and a deep
		// check's mismatch unreliable); restart and reconcile instead of
		// comparing.
		e.inj.fired = false
		return e.reconcile(i, s, want)
	}
	return d
}

// run executes one step and returns the model's prediction for it with the
// first divergence; a fault that fired inside the step is exec's business.
func (e *engine) run(i int, s Step) (outcome, *Divergence) {
	div := divAt(i, s)
	ok := outcome{kind: eOK}
	if e.v == nil {
		// A close step shut the vault: this one restarts it, and the
		// memory-only break-glass grants do not survive that.
		if err := e.open(); err != nil {
			return ok, div("reopen after close: %v", err)
		}
		e.model.clearGrants()
	}
	switch s.Op {
	case OpAdvance:
		e.vc.Advance(time.Duration(s.Hours) * time.Hour)
		return e.model.advance(s), nil
	case OpVerify:
		return ok, e.deepCheck(i, s)
	case OpCrash:
		if !e.plan.Durable {
			return ok, nil
		}
		e.inj.enospcAt = -1 // a power cut supersedes a pending media fault
		return ok, e.crash(i, s)
	case OpENOSPC:
		if e.plan.Durable {
			e.inj.enospcAt = e.faulty.MutatingOps() + s.N
		}
		return ok, nil
	case OpRevoke:
		e.v.Authz().Revoke(s.Actor)
		return e.model.revoke(s), nil
	case OpClose:
		// Close checkpoints every shard; no record state changes.
		err := e.v.Close()
		e.v = nil
		if err != nil {
			return ok, div("close: %v", err)
		}
		return ok, nil
	}

	want, d := e.vaultOp(i, s)
	if d != nil || e.plan.Durable && e.inj.fired {
		return want, d
	}
	// Cheap whole-vault invariants after every step; the expensive sweep runs
	// on OpVerify.
	if got, wantN := e.v.Len(), len(e.model.liveIDs()); got != wantN {
		return want, div("live records: vault %d, model %d", got, wantN)
	}
	var logSize uint64
	for _, h := range e.v.Heads() {
		logSize += h.Size
	}
	if wantN := uint64(e.model.totalVersions()); logSize != wantN {
		return want, div("commitment log size: vault %d, model %d", logSize, wantN)
	}
	return want, nil
}

// vaultOp executes a vault operation step, advancing the model alongside,
// and compares outcome class and payload. The returned outcome is the
// model's prediction (needed by reconcile when a fault fired mid-step).
func (e *engine) vaultOp(i int, s Step) (outcome, *Divergence) {
	div := divAt(i, s)
	// check compares the vault's outcome class with the model's; a nil
	// result with a nil err means the payload is the next thing to compare.
	check := func(want outcome, err error) *Divergence {
		if got := classify(err); got != want.kind {
			return div("outcome: vault %s (%v), model %s", got, err, want.kind)
		}
		return nil
	}
	switch s.Op {
	case OpPut:
		rec := e.stepRecord(s)
		want := e.model.put(s)
		ver, err := e.v.PutCtx(ctx, s.Actor, rec)
		if d := check(want, err); d != nil || err != nil {
			return want, d
		}
		if ver.Number != want.version {
			return want, div("put version: vault %d, model %d", ver.Number, want.version)
		}
		e.model.learnHash(s.Record, ver.CtHash)
		return want, nil
	case OpGet:
		want := e.model.get(s)
		e.armRot(s)
		rec, ver, err := e.v.GetCtx(ctx, s.Actor, s.Record)
		e.armRot(Step{}) // a denied read leaves the arm untouched; clear it
		if want.flexible && want.kind == eOK && err != nil {
			// Bit rot: detecting the corruption (any error) is acceptable;
			// returning wrong bytes silently would not be, and is caught below.
			return want, nil
		}
		if d := check(want, err); d != nil || err != nil {
			return want, d
		}
		if ver.Number != want.version {
			return want, div("get version: vault %d, model %d", ver.Number, want.version)
		}
		if rec.Body != want.body {
			return want, div("get body: vault %q, model %q", rec.Body, want.body)
		}
		return want, nil
	case OpGetVersion:
		want := e.model.getVersion(s)
		e.armRot(s)
		rec, ver, err := e.v.GetVersionCtx(ctx, s.Actor, s.Record, s.Version)
		e.armRot(Step{})
		if want.flexible && want.kind == eOK && err != nil {
			return want, nil // bit rot detected, as for get
		}
		if d := check(want, err); d != nil || err != nil {
			return want, d
		}
		if ver.Number != want.version {
			return want, div("get_version number: vault %d, model %d", ver.Number, want.version)
		}
		if rec.Body != want.body {
			return want, div("get_version body: vault %q, model %q", rec.Body, want.body)
		}
		return want, nil
	case OpHistory:
		want := e.model.history(s)
		hist, err := e.v.HistoryCtx(ctx, s.Actor, s.Record)
		if d := check(want, err); d != nil || err != nil {
			return want, d
		}
		if len(hist) != len(want.history) {
			return want, div("history length: vault %d, model %d", len(hist), len(want.history))
		}
		for j, v := range hist {
			if v.Number != uint64(j+1) || v.Author != want.history[j].Author {
				return want, div("history[%d]: vault v%d by %s, model v%d by %s",
					j, v.Number, v.Author, j+1, want.history[j].Author)
			}
		}
		return want, nil
	case OpCorrect:
		rec := e.stepRecord(s)
		want := e.model.correct(s)
		ver, err := e.v.CorrectCtx(ctx, s.Actor, rec)
		if d := check(want, err); d != nil || err != nil {
			return want, d
		}
		if ver.Number != want.version {
			return want, div("correct version: vault %d, model %d", ver.Number, want.version)
		}
		e.model.learnHash(s.Record, ver.CtHash)
		return want, nil
	case OpSearch, OpSearchAll:
		conj := s.Op == OpSearchAll
		want := e.model.search(s, conj)
		var ids []string
		var err error
		if conj {
			ids, err = e.v.SearchAllCtx(ctx, s.Actor, s.Keywords...)
		} else {
			ids, err = e.v.SearchCtx(ctx, s.Actor, s.Keywords[0])
		}
		if d := check(want, err); d != nil || err != nil {
			return want, d
		}
		if !sameIDs(ids, want.ids) {
			return want, div("search hits: vault %v, model %v", ids, want.ids)
		}
		return want, nil
	case OpShred:
		want := e.model.shred(s)
		return want, check(want, e.v.ShredCtx(ctx, s.Actor, s.Record))
	case OpPlaceHold:
		want := e.model.placeHold(s)
		return want, check(want, e.v.PlaceHoldCtx(ctx, s.Actor, s.Record, s.Reason))
	case OpReleaseHold:
		want := e.model.releaseHold(s)
		return want, check(want, e.v.ReleaseHoldCtx(ctx, s.Actor, s.Record))
	case OpSanitize:
		want := e.model.sanitize(s)
		_, _, err := e.v.SanitizeMedia(s.Actor)
		return want, check(want, err)
	case OpBreakGlass:
		want := e.model.breakGlass(s)
		return want, check(want, e.v.BreakGlassCtx(ctx, s.Actor, s.Reason, time.Duration(s.Minutes)*time.Minute))
	case OpDisclosures:
		want := e.model.disclosures(s)
		ds, err := e.v.AccountingOfDisclosuresCtx(ctx, s.Actor, s.MRN)
		if d := check(want, err); d != nil || err != nil {
			return want, d
		}
		if d := compareDisclosures(ds, want.discl); d != "" {
			return want, div("disclosures for %s: %s", s.MRN, d)
		}
		return want, nil
	case OpPatientRecs:
		want := e.model.patientRecords(s)
		ids, err := e.v.PatientRecordsCtx(ctx, s.Actor, s.MRN)
		if err != nil {
			return want, div("patient_recs: unexpected error %v", err)
		}
		if !sameIDs(ids, want.ids) {
			return want, div("patient_recs: vault %v, model %v", ids, want.ids)
		}
		return want, nil
	}
	return outcome{}, div("unknown op %q", s.Op)
}

// armRot arms a corrupted ciphertext read for a durable read step with Rot
// set, after the step's N reads, and disarms it for any other step.
func (e *engine) armRot(s Step) {
	if e.plan.Durable {
		e.inj.rot, e.inj.skip = s.Rot, s.N
	}
}

// stepRecord builds the concrete ehr.Record a put/correct step submits.
func (e *engine) stepRecord(s Step) ehr.Record {
	return ehr.Record{
		ID:        s.Record,
		Patient:   s.Patient,
		MRN:       s.MRN,
		Category:  ehr.Category(s.Category),
		Author:    s.Actor,
		CreatedAt: e.model.now.Add(-time.Duration(s.Backdate) * time.Hour),
		Title:     s.Title,
		Body:      s.Body,
		Codes:     s.Codes,
	}
}

// classify names a vault error by its outcome label (core.Outcome).
func classify(err error) errKind { return errKind(core.Outcome(err)) }

// sameIDs compares two ID slices treating nil and empty as equal.
func sameIDs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareDisclosures checks the vault's accounting against the model's,
// field by field (timestamps excluded — they belong to the audit layer).
func compareDisclosures(got []core.Disclosure, want []mDisclosure) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length: vault %d, model %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Actor != w.Actor || g.Action != w.Action || g.Record != w.Record ||
			g.Version != w.Version || g.Outcome != w.Outcome || g.BreakGlass != w.BreakGlass {
			return fmt.Sprintf("entry %d: vault %+v, model %+v", i, g, w)
		}
	}
	return ""
}

// projectEvents reduces audit events to the fields the model tracks.
func projectEvents(evs []audit.Event) []auEvent {
	out := make([]auEvent, len(evs))
	for i, e := range evs {
		out[i] = auEvent{e.Actor, e.Action, e.Record, e.Version, e.Outcome}
	}
	return out
}

// auditQueryEvent is the decision event an AuditEvents/Provenance query
// appends for itself.
func auditQueryEvent(record string) auEvent {
	return auEvent{auditor, audit.ActionVerify, record, 0, audit.OutcomeAllowed}
}

// deepCheck is the full-sweep cross-check: integrity verification under
// every remembered head and checkpoint, registry observables, retention
// sweep, every custody chain, every patient's disclosure accounting, and —
// last, because everything above appends to it — the complete audit journal.
func (e *engine) deepCheck(i int, s Step) *Divergence {
	div := divAt(i, s)
	m := e.model

	// Sweep each shard under its own remembered heads and checkpoints —
	// extension proofs are shard-local — then, when sharded, run the
	// cluster-level fan-out sweep too so its merge arithmetic is checked.
	totalVersions, totalRecords := 0, 0
	for s := 0; s < e.shards; s++ {
		rep, err := e.shard(s).VerifyAll(e.heads[s], e.cps[s])
		if err != nil {
			return div("shard %d VerifyAll: %v", s, err)
		}
		m.appendShard(s, auEvent{m.name, audit.ActionVerify, "", 0, audit.OutcomeAllowed})
		if rep.HeadsChecked != len(e.heads[s]) || rep.CheckpointsProven != len(e.cps[s]) {
			return div("shard %d VerifyAll remembered: %d/%d heads, %d/%d checkpoints",
				s, rep.HeadsChecked, len(e.heads[s]), rep.CheckpointsProven, len(e.cps[s]))
		}
		totalVersions += rep.VersionsChecked
		totalRecords += rep.RecordsChecked
	}
	if totalVersions != m.totalVersions() {
		return div("VerifyAll versions: vault %d, model %d", totalVersions, m.totalVersions())
	}
	if totalRecords != len(m.records) {
		return div("VerifyAll records: vault %d, model %d", totalRecords, len(m.records))
	}
	if e.shards > 1 {
		rep, err := e.v.VerifyAll(nil, nil)
		if err != nil {
			return div("cluster VerifyAll: %v", err)
		}
		m.noteVaultEvent(auEvent{m.name, audit.ActionVerify, "", 0, audit.OutcomeAllowed})
		if rep.VersionsChecked != m.totalVersions() || rep.RecordsChecked != len(m.records) {
			return div("cluster VerifyAll totals: vault %d versions / %d records, model %d / %d",
				rep.VersionsChecked, rep.RecordsChecked, m.totalVersions(), len(m.records))
		}
	}

	if got, want := e.v.RecordIDs(), m.liveIDs(); !sameIDs(got, want) {
		return div("record IDs: vault %v, model %v", got, want)
	}
	if got, want := e.v.ExpiredRecords(), m.expired(); !sameIDs(got, want) {
		return div("retention sweep: vault %v, model %v", got, want)
	}
	if got, want := holdIDs(e.v), m.heldIDs(); !sameIDs(got, want) {
		return div("legal holds: vault %v, model %v", got, want)
	}
	for _, id := range m.liveIDs() {
		n, err := e.v.VersionCount(id)
		if err != nil || n != len(m.records[id].Versions) {
			return div("version count of %s: vault %d (%v), model %d", id, n, err, len(m.records[id].Versions))
		}
	}

	for _, id := range m.allIDs() {
		if d := e.checkCustody(div, id); d != nil {
			return d
		}
	}

	for _, mrn := range m.mrns() {
		want := m.disclosures(Step{Op: OpDisclosures, Actor: auditor, MRN: mrn})
		ds, err := e.v.AccountingOfDisclosuresCtx(ctx, auditor, mrn)
		if want.kind != eOK {
			return div("model cannot account for %s: %s", mrn, want.kind)
		}
		if err != nil {
			return div("disclosures for %s: %v", mrn, err)
		}
		if d := compareDisclosures(ds, want.discl); d != "" {
			return div("disclosures for %s: %s", mrn, d)
		}
	}

	// Each shard's chain is compared in full against the model's per-shard
	// journal — Seq numbers are shard-local, so they must be dense per shard.
	for s := 0; s < e.shards; s++ {
		m.appendShard(s, auditQueryEvent(""))
		evs, err := e.shard(s).AuditEventsCtx(ctx, auditor, audit.Query{})
		if err != nil {
			return div("shard %d audit query: %v", s, err)
		}
		got := projectEvents(evs)
		want := m.journalFor(s)
		if len(got) != len(want) {
			return div("shard %d audit journal length: vault %d, model %d", s, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				return div("shard %d audit journal[%d]: vault %+v, model %+v", s, j, got[j], want[j])
			}
		}
		for j, ev := range evs {
			if ev.Seq != uint64(j) {
				return div("shard %d audit seq[%d] = %d", s, j, ev.Seq)
			}
		}
	}
	if e.shards > 1 {
		// The cluster-level query audits its decision on every shard and
		// merges chronologically; the model's merged journal must match
		// event for event.
		m.authorize(auditor, authz.ActAudit, audit.ActionVerify, "", 0, "")
		evs, err := e.v.AuditEventsCtx(ctx, auditor, audit.Query{})
		if err != nil {
			return div("cluster audit query: %v", err)
		}
		got := projectEvents(evs)
		want := m.mergedJournal()
		if len(got) != len(want) {
			return div("merged audit journal length: vault %d, model %d", len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				return div("merged audit journal[%d]: vault %+v, model %+v", j, got[j], want[j])
			}
		}
	}

	// Remember this moment off-system: future sweeps must prove the logs
	// still extend it.
	for s := 0; s < e.shards; s++ {
		e.heads[s] = append(e.heads[s], e.shard(s).Head())
		e.cps[s] = append(e.cps[s], e.shard(s).AuditCheckpoint())
		if len(e.heads[s]) > 8 {
			e.heads[s] = e.heads[s][len(e.heads[s])-8:]
		}
		if len(e.cps[s]) > 8 {
			e.cps[s] = e.cps[s][len(e.cps[s])-8:]
		}
	}
	return nil
}

// checkCustody requires id's custody chain to be the model's exactly, after a
// crash or a fault as before it: each event's type, and the ciphertext hash
// of the version it records (zero for a shred). A landed op the vault never
// acked has a hash the model has not seen; the chain's event for it is
// learned here, unless it repeats another event's hash — a replayed
// duplicate is not the op in flight. The query is audited like any other.
func (e *engine) checkCustody(div func(string, ...any) *Divergence, id string) *Divergence {
	e.model.authorize(auditor, authz.ActAudit, audit.ActionVerify, id, 0, "")
	chain, err := e.v.ProvenanceCtx(ctx, auditor, id)
	if err != nil {
		return div("provenance of %s: %v", id, err)
	}
	want := e.model.prov[id]
	if len(chain) != len(want) {
		return div("provenance of %s: vault %d events, model %d", id, len(chain), len(want))
	}
	for j, ev := range chain {
		w := &want[j]
		if w.ContentHash == ([32]byte{}) && w.Type != provenance.EventShredded && !repeats(chain, j) {
			w.ContentHash = ev.ContentHash
		}
		if ev.Type != w.Type || ev.ContentHash != w.ContentHash {
			return div("custody event %d of %s: vault %s %x, model %s %x", j, id, ev.Type, ev.ContentHash[:4], w.Type, w.ContentHash[:4])
		}
	}
	return nil
}

// repeats reports whether another event of chain carries event j's hash.
func repeats(chain []provenance.Event, j int) bool {
	for k, ev := range chain {
		if k != j && ev.ContentHash == chain[j].ContentHash {
			return true
		}
	}
	return false
}

// holdIDs lists the cluster's held record IDs, sorted (the retention manager
// is shared, so this is whole-cluster state regardless of shard count).
func holdIDs(v *core.Cluster) []string {
	holds := v.Retention().Holds()
	ids := make([]string, 0, len(holds))
	for _, h := range holds {
		ids = append(ids, h.Record)
	}
	sort.Strings(ids)
	return ids
}

// crash simulates one or two power cuts around a remount cycle:
//
//  1. If N > 0, a crash latch is armed N mutating fs ops ahead and Close is
//     called — the cut can land mid-snapshot or between the snapshot rename
//     and the WAL checkpoint, the window WAL-replay idempotence protects.
//     With N == 0 the vault is abandoned mid-flight (pure power cut).
//  2. Recover on a KeepNone image (every unsynced byte gone), reconcile
//     what legitimately could be lost, deep-check everything else.
//  3. Close cleanly, cut again immediately — catching a snapshot whose
//     rename outran its fsync — recover and deep-check once more.
func (e *engine) crash(i int, s Step) *Divergence {
	if s.N > 0 {
		e.inj.crashAt = e.faulty.MutatingOps() + s.N - 1
		_ = e.v.Close()
	}
	if d := e.recoverCut(i, s, faultfs.KeepNone, nil); d != nil {
		return d
	}
	if err := e.v.Close(); err != nil {
		return divAt(i, s)("clean close: %v", err)
	}
	return e.recoverCut(i, s, faultfs.KeepNone, nil)
}

// recoverCut brings the vault back from a power cut and judges it: the cut
// (see cut), the persisted flight tail read off the raw image, the remount,
// the op a fault cut short settled (want is the model's prediction for step
// s; nil when no op was in flight), the tail's claims held to the settled
// model, the audit tail resynced, and the deep check. Everything WAL-acked —
// versions, shreds, holds, and the custody events replay completes — gets no
// slack: the deep check requires it exactly.
func (e *engine) recoverCut(i int, s Step, keep faultfs.KeepPolicy, want *outcome) *Divergence {
	if d := e.cut(i, s, keep); d != nil {
		return d
	}
	tail, d := e.flightTail(i, s)
	if d != nil {
		return d
	}
	if d := e.remount(i, s); d != nil {
		return d
	}
	if want != nil {
		if d := e.settle(i, s, *want); d != nil {
			return d
		}
	}
	if d := e.checkFlightClaims(i, s, tail); d != nil {
		return d
	}
	if d := e.resyncTails(i, s); d != nil {
		return d
	}
	return e.deepCheck(i, s)
}

// cut kills the primary. In failover mode the primary hangs up, and once the
// follower's loop has returned the follower is promoted and its replica disk
// becomes the next generation's medium — a keep-everything op-boundary
// image, since the follower applied exactly the ops the primary's disk
// accepted; the model's prefix reconciliation then finds nothing missing.
// Otherwise the power cut is simulated directly: a crash image of the
// primary under keep.
func (e *engine) cut(i int, s Step, keep faultfs.KeepPolicy) *Divergence {
	if !e.plan.Failover {
		e.mem = e.mem.CrashImage(keep)
		return nil
	}
	e.hangUp()
	if _, err := e.fol.Promote(); err != nil {
		return divAt(i, s)("promoting follower: %v", err)
	}
	e.mem = e.fmem
	return nil
}

// hangUp closes the primary's end of the replication link, as the kernel
// does for a dead process, and waits for the follower's loop to return.
func (e *engine) hangUp() {
	if e.link != nil {
		e.link.Kill()
		e.link = nil
	}
}

// remount restarts the vault over the current medium: break-glass grants
// die with the process, and remembered audit checkpoints may now outrun a
// truncated chain.
func (e *engine) remount(i int, s Step) *Divergence {
	if err := e.open(); err != nil {
		return divAt(i, s)("remount failed: %v", err)
	}
	e.model.clearGrants()
	e.cps = make([][]audit.Checkpoint, e.shards)
	return nil
}

// resyncTails reconciles the audit journal against the reopened vault
// (prefix-match or divergence). A power cut cuts the audit tail, and an
// injected fault wedges the log at the failed append, so after either what
// survived is a prefix of what the model expected.
func (e *engine) resyncTails(i int, s Step) *Divergence {
	div := divAt(i, s)
	m := e.model
	for sh := 0; sh < e.shards; sh++ {
		evs, err := e.shard(sh).AuditEventsCtx(ctx, auditor, audit.Query{})
		if err != nil {
			return div("shard %d audit query after remount: %v", sh, err)
		}
		got := projectEvents(evs)
		if len(got) == 0 || got[len(got)-1] != auditQueryEvent("") {
			return div("shard %d audit chain after remount does not end with the query's own event", sh)
		}
		chain := got[:len(got)-1]
		if pos, ok := m.resyncJournal(sh, chain); !ok {
			have := "<past end>"
			if pos < len(chain) {
				have = fmt.Sprintf("%+v", chain[pos])
			}
			want := "<past end>"
			if pos < len(m.journals[sh]) {
				want = fmt.Sprintf("%+v", m.journals[sh][pos].ev)
			}
			return div("shard %d audit chain after remount is not a prefix of expectations (at %d: vault %s, model %s)", sh, pos, have, want)
		}
		m.appendShard(sh, auditQueryEvent(""))
	}
	return nil
}

// settle resolves step s, which a fault cut short, against the remounted
// vault: the operation may have landed or not, and un-audited probes tell
// which, so the model reverts what did not. A faulted custody append of a
// committed mutation needs no probe: replay appends the event.
func (e *engine) settle(i int, s Step, want outcome) *Divergence {
	if want.kind != eOK {
		return nil // the model predicted a failure and changed nothing
	}
	div := divAt(i, s)
	m := e.model
	switch s.Op {
	case OpPut:
		if _, err := e.v.VersionCount(s.Record); err != nil {
			m.dropRecord(s.Record)
		}
	case OpCorrect:
		n, err := e.v.VersionCount(s.Record)
		switch {
		case err != nil:
			return div("record vanished in the restart: %v", err)
		case n == int(want.version)-1:
			m.popVersion(s.Record)
		case n != int(want.version):
			return div("correction half-landed: vault has %d versions, model %d", n, want.version)
		}
	case OpShred:
		_, err := e.v.VersionCount(s.Record)
		switch {
		case err == nil:
			m.unshred(s.Record)
		case classify(err) != eShredded:
			return div("shred target unreadable after restart: %v", err)
		}
	case OpPlaceHold, OpReleaseHold:
		m.setHold(s.Record, slices.Contains(holdIDs(e.v), s.Record))
	}
	return nil
}

// reconcile handles a step an injected fault fired inside: the vault may
// have wedged, the operation may have half-landed, and the audit log may
// have wedged short of the step's events. The disk is kept (a process
// restart, not a power cut), the vault is remounted, and the step settled.
func (e *engine) reconcile(i int, s Step, want outcome) *Divergence {
	div := divAt(i, s)
	if d := e.remount(i, s); d != nil {
		return d
	}
	if d := e.settle(i, s, want); d != nil {
		return d
	}

	// The probed resolution is only as durable as whatever the faulted op
	// happened to sync: a mutation that errored after writing (but not
	// syncing) its WAL entry is visible now yet would vanish in a later
	// power cut, flipping the answer the model just adopted. Cycle through a
	// clean close — which checkpoints and syncs everything — so the probed
	// state is the durable state.
	if err := e.v.Close(); err != nil {
		return div("clean close after fault reconcile: %v", err)
	}
	if err := e.open(); err != nil {
		return div("reopen after fault reconcile: %v", err)
	}

	if d := e.resyncTails(i, s); d != nil || s.Record == "" || e.model.prov[s.Record] == nil {
		return d
	}
	return e.checkCustody(div, s.Record)
}
