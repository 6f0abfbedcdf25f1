package sim

// Crash-recovery torture. RunTorture runs tortureScript — a fixed clinical
// workload of ordinary Steps — against a vault on a fault-injecting
// faultfs.Mem, enumerates every mutating filesystem op the script performs,
// and re-runs it once per op with a power cut (or a media fault) injected
// there. A run stops at the step the fault surfaced in: the one op in
// flight. The harness then cuts power, remounts the crash image, and the
// model judges what recovered (see engine.recoverCut):
//
//   - the op in flight settles either way, by the sim's probes; every step
//     acknowledged before it is owed durability — an ack is a lower bound,
//     not an upper one;
//   - the persisted flight tail decodes, leaks nothing, and claims only ops
//     the model holds;
//   - the deep check: VerifyAll clean, every custody chain exactly the
//     model's (types and ciphertext hashes), holds, records, disclosures,
//     and each shard's surviving audit chain a prefix of the model's;
//   - every acked version reads back with its exact body, twice (the second
//     read served from the caches the first filled), and every acked shred
//     stays shredded;
//   - no plaintext sentinel is on the medium, nor, once a sanitize pass is
//     acked, the ciphertext of any record shredded before it;
//   - recovery is idempotent: after a clean close the same judgement holds.
//
// Beyond power cuts the harness injects a failed fsync at every sync point
// (the WAL must wedge rather than ack on a lying disk), ENOSPC at every write,
// and single-bit rot on ciphertext reads from the block store and from
// meta.wal (the frame CRC and AEAD tag must turn silent corruption into a
// loud error, never wrong data). Bit rot is injected only under read paths
// of a healthy vault, not during recovery itself: recovery treats an
// unreadable tail as torn, which is the designed response to a torn tail but
// indistinguishable from rot of the final segment.

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"medvault/internal/ehr"
	"medvault/internal/faultfs"
)

// tortureEpoch is the fixed start of vault time in every torture run; all
// scenarios are deterministic given the same build.
var tortureEpoch = time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)

// sentinelPrefix starts every torture body: the medium scan greps for it.
const sentinelPrefix = "TORTURE-SENTINEL"

// tortureWrite is a put or correct of record id as its version-th version,
// with a unique plaintext sentinel in its body.
func tortureWrite(op OpKind, id string, version int) Step {
	return Step{Op: op, Actor: "dr-house", Record: id, MRN: "mrn-" + id, Patient: "Pat Torture",
		Category: string(ehr.CategoryClinical), Title: "torture note " + id, Codes: []string{"I10"},
		Body: fmt.Sprintf("%s-%s-v%d hypertension follow-up, dosage adjusted", sentinelPrefix, id, version)}
}

// tortureScript is the workload every torture scenario runs.
var tortureScript = []Step{
	tortureWrite(OpPut, "rec-0", 1),
	tortureWrite(OpPut, "rec-1", 1),
	tortureWrite(OpPut, "rec-2", 1),
	tortureWrite(OpPut, "rec-3", 1),
	tortureWrite(OpCorrect, "rec-1", 2),
	tortureWrite(OpCorrect, "rec-2", 2),
	{Op: OpPlaceHold, Actor: "arch-lee", Record: "rec-3", Reason: "litigation"},
	{Op: OpPlaceHold, Actor: "arch-lee", Record: "rec-2", Reason: "investigation"},
	{Op: OpReleaseHold, Actor: "arch-lee", Record: "rec-2"},
	// Age past the clinical retention period so shredding is permitted.
	{Op: OpAdvance, Hours: 40 * 365 * 24},
	// Warm every cache layer on the shred target: this read pulls rec-0's
	// plaintext DEK into the key cache and its ciphertext into the block
	// cache, so the shred must invalidate both — and a crash injected
	// anywhere inside the shred exercises recovery with those caches gone.
	{Op: OpGet, Actor: "dr-house", Record: "rec-0"},
	{Op: OpShred, Actor: "arch-lee", Record: "rec-0"},
	// Read-after-shred: the caches warmed above must not resurrect rec-0.
	{Op: OpGet, Actor: "dr-house", Record: "rec-0"},
	// The first pass relocates every version out of meta.wal; the second,
	// after rec-2's shred, relocates the block-resident versions behind it
	// and empties the segment the first one wrote.
	{Op: OpSanitize, Actor: "arch-lee"},
	{Op: OpShred, Actor: "arch-lee", Record: "rec-2"},
	{Op: OpSanitize, Actor: "arch-lee"},
	tortureWrite(OpPut, "rec-4", 1),
	{Op: OpClose},
}

// TortureOpts configures a torture run.
type TortureOpts struct {
	// Shards is the cluster shard count the script runs against; <= 1
	// tortures the classic single vault. Larger counts spread the scripted
	// records over per-shard WALs, blockstores, and audit chains, so every
	// crash point exercises multi-shard recovery.
	Shards int
	// Stride tests every Nth crash point; 0 means 1 (every point). CI smoke
	// runs use 5. Injection-point enumeration is always complete.
	Stride int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// TortureFailure is one violated invariant: which scenario, at which
// injection point, and — like a medsim divergence — the step in flight and
// what broke.
type TortureFailure struct {
	Scenario string // e.g. "crash-after/keep-none"
	Point    int    // mutating-op index the fault was injected at; -1 if n/a
	Divergence
}

func (f TortureFailure) String() string {
	return fmt.Sprintf("%s point=%d: %v", f.Scenario, f.Point, &f.Divergence)
}

// TortureReport summarizes a run.
type TortureReport struct {
	InjectionPoints int // distinct mutating fs ops the script performs
	CrashScenarios  int // power-cut simulations executed
	FaultScenarios  int // non-crash fault simulations (EIO/ENOSPC/bit rot)
	Failures        []TortureFailure
}

// Passed reports whether every invariant held in every scenario.
func (r TortureReport) Passed() bool { return len(r.Failures) == 0 }

// torture is one scenario: the engine, and what the medium scan needs that
// the model does not keep.
type torture struct {
	*engine
	cts       map[string][][]byte // each record's acked ciphertexts
	sanitized map[string]bool     // records shredded before an acked sanitize
}

// newTorture opens the torture vault — its name, epoch and staff — on a
// fresh medium, with first striking its first generation only.
func newTorture(shards int, failover bool, first strike) (*torture, error) {
	plan := Plan{Format: traceFormat, Workers: 1, Shards: shards, Durable: true, Failover: failover, Name: "torture"}
	t := &torture{engine: makeEngine(plan, tortureEpoch, first, nil),
		cts: make(map[string][][]byte), sanitized: make(map[string]bool)}
	return t, t.open()
}

// play runs the script until a step diverges from the model. When struck
// reports that the injected fault fired, the divergence is that fault
// surfacing: the step is the op in flight, returned with the model's
// prediction for it. Otherwise the divergence is a failure. inFlight is -1
// when the whole script ran.
func (t *torture) play(struck func() bool) (inFlight int, want outcome, d *Divergence) {
	for i, s := range tortureScript {
		want, d := t.run(i, s)
		if d != nil {
			if struck() {
				return i, want, nil
			}
			return i, want, d
		}
		if want.kind != eOK {
			continue
		}
		switch s.Op {
		case OpPut, OpCorrect:
			n := len(t.model.records[s.Record].Versions)
			if ct, err := t.v.Ciphertext(s.Record, uint64(n)); err == nil {
				t.cts[s.Record] = append(t.cts[s.Record], ct)
			}
		case OpSanitize:
			for id, r := range t.model.records {
				if r.Shredded {
					t.sanitized[id] = true
				}
			}
		}
	}
	return -1, outcome{}, nil
}

// judge cuts power with the script stopped at inFlight and holds what
// recovers to the model (engine.recoverCut), reads everything back and scans
// the medium; then closes cleanly, cuts again and does it all once more.
// Divergences name the step in flight, or a crash step after the script's
// end when none was.
func (t *torture) judge(keep faultfs.KeepPolicy, inFlight int, want outcome) *Divergence {
	i, s, pending := len(tortureScript), Step{Op: OpCrash}, (*outcome)(nil)
	if inFlight >= 0 {
		i, s, pending = inFlight, tortureScript[inFlight], &want
	}
	for pass := 1; pass <= 2; pass++ {
		if pass == 2 {
			if err := t.v.Close(); err != nil {
				return divAt(i, s)("clean close: %v", err)
			}
			keep, pending = faultfs.KeepNone, nil
		}
		d := t.recoverCut(i, s, keep, pending)
		if d == nil {
			d = t.readBack(i, s)
		}
		if d == nil {
			d = t.scanMedium(i, s)
		}
		if d != nil {
			d.Msg = fmt.Sprintf("recovery pass %d: %s", pass, d.Msg)
			return d
		}
	}
	return nil
}

// readBack reads every acked version back twice — the second read is served
// from the block and key caches the first filled, so the cached path must
// return the same body — and reads every shredded record, each as a step
// the model judges.
func (t *torture) readBack(i int, s Step) *Divergence {
	for _, id := range t.model.allIDs() {
		r := t.model.records[id]
		reads := []Step{{Op: OpGet, Actor: "dr-house", Record: id}}
		if !r.Shredded {
			reads = reads[:0]
			for n := range r.Versions {
				read := Step{Op: OpGetVersion, Actor: "dr-house", Record: id, Version: uint64(n + 1)}
				reads = append(reads, read, read)
			}
		}
		for _, read := range reads {
			if _, d := t.run(i, read); d != nil {
				return divAt(i, s)("read-back %s: %s", read, d.Msg)
			}
		}
	}
	return nil
}

// scanMedium greps the medium for what must not be on it: sentinel
// plaintext, since every byte on the medium is supposed to be ciphertext,
// HMAC tokens, or structural metadata; and the ciphertext of every record
// whose shred an acked sanitize pass followed.
func (t *torture) scanMedium(i int, s Step) *Divergence {
	needles := map[string][]byte{"plaintext sentinel": []byte(sentinelPrefix)}
	for id := range t.sanitized {
		for n, ct := range t.cts[id] {
			needles[fmt.Sprintf("ciphertext %d of sanitized %s", n+1, id)] = ct
		}
	}
	for path, data := range t.mem.Dump() {
		for what, needle := range needles {
			if bytes.Contains(data, needle) {
				return divAt(i, s)("%s found on medium in %s", what, path)
			}
		}
	}
	return nil
}

// runScenario runs the script under inject, takes a crash image under keep,
// and judges recovery. Panics anywhere in the scenario are failures.
func runScenario(name string, point int, inject faultfs.Injector, keep faultfs.KeepPolicy, shards int) (fail *TortureFailure) {
	report := func(d *Divergence) *TortureFailure {
		return &TortureFailure{Scenario: name, Point: point, Divergence: *d}
	}
	defer func() {
		if r := recover(); r != nil {
			fail = report(&Divergence{Index: -1, Msg: fmt.Sprintf("panic: %v", r)})
		}
	}()
	struck := false
	t, err := newTorture(shards, false, strike{inject: func(op faultfs.Op) *faultfs.Fault {
		f := inject(op)
		struck = struck || f != nil
		return f
	}})
	inFlight, want := -1, outcome{}
	switch {
	case err == nil:
		// The faulted vault is abandoned un-closed, as a power cut leaves it.
		var d *Divergence
		if inFlight, want, d = t.play(func() bool { return struck }); d != nil {
			return report(d)
		}
	case !struck:
		return report(&Divergence{Index: -1, Msg: "opening vault: " + err.Error()})
	}
	if d := t.judge(keep, inFlight, want); d != nil {
		return report(d)
	}
	return nil
}

// enumerate runs the script once, fault-free, over a recording injector and
// returns the full op trace. It also sanity-checks the harness itself: the
// clean image must recover and pass the model.
func enumerate(shards int) ([]faultfs.Op, error) {
	var trace []faultfs.Op
	recorder := func(op faultfs.Op) *faultfs.Fault {
		if op.Index >= 0 {
			trace = append(trace, op)
		}
		return nil
	}
	if f := runScenario("clean", -1, recorder, faultfs.KeepAll, shards); f != nil {
		return nil, fmt.Errorf("torture: clean run fails its own oracle: %s", f)
	}
	return trace, nil
}

// crashCase is one power-cut scenario at an injection point.
type crashCase struct {
	name   string
	inject faultfs.Injector
	keep   faultfs.KeepPolicy
}

// crashMatrix returns the scenarios exercised at one injection point.
func crashMatrix(op faultfs.Op) []crashCase {
	i := op.Index
	m := []crashCase{
		{"crash-before/keep-none", faultfs.CrashBefore(i), faultfs.KeepNone},
		{"crash-after/keep-none", faultfs.CrashAfter(i), faultfs.KeepNone},
		{"crash-after/keep-all", faultfs.CrashAfter(i), faultfs.KeepAll},
		{"crash-after/keep-half", faultfs.CrashAfter(i), faultfs.KeepHalf},
	}
	if op.Kind == faultfs.OpWrite {
		m = append(m, crashCase{"torn-write/keep-all", faultfs.TornWriteAt(i), faultfs.KeepAll})
	}
	return m
}

// runBitRot exercises read-path corruption detection: the script runs
// clean, one more record is put (so it sits in meta.wal while the script's
// versions sit in the block store), then every version of every live record
// is read with one bit of its ciphertext flipped — in the frame header read,
// then in the payload read. Every flip must fire, and the vault must return
// an error or the exact body. Returns the number of scenarios run and any
// failures.
func runBitRot(shards int) (int, []TortureFailure) {
	fail := func(name string, d *Divergence) []TortureFailure {
		return []TortureFailure{{Scenario: name, Point: -1, Divergence: *d}}
	}
	t, err := newTorture(shards, false, strike{})
	if err != nil {
		return 0, fail("bit-rot/setup", &Divergence{Index: -1, Msg: err.Error()})
	}
	never := func() bool { return false }
	if _, _, d := t.play(never); d != nil {
		return 0, fail("bit-rot/setup", d)
	}
	i := len(tortureScript)
	if _, d := t.run(i, tortureWrite(OpPut, "rot-0", 1)); d != nil {
		return 0, fail("bit-rot/setup", d)
	}

	var fails []TortureFailure
	scenarios, inWAL, inBlocks := 0, 0, 0
	for _, id := range t.model.liveIDs() {
		for n := range t.model.records[id].Versions {
			for skip := 0; skip <= 1; skip++ {
				i++
				scenarios++
				t.inj.rotted = ""
				s := Step{Op: OpGetVersion, Actor: "dr-house", Record: id, Version: uint64(n + 1), Rot: true, N: skip}
				if _, d := t.run(i, s); d != nil {
					fails = append(fails, fail(fmt.Sprintf("bit-rot/read-%d", skip), d)...)
				}
				switch {
				case strings.Contains(t.inj.rotted, "/meta.wal"):
					inWAL++
				case strings.Contains(t.inj.rotted, "/blocks/"):
					inBlocks++
				}
			}
		}
	}
	if inWAL+inBlocks != scenarios || inWAL == 0 || inBlocks == 0 {
		fails = append(fails, fail("bit-rot/coverage", &Divergence{Index: -1,
			Msg: fmt.Sprintf("%d of %d armed rots fired (%d on meta.wal, %d on block store ciphertext; want both)", inWAL+inBlocks, scenarios, inWAL, inBlocks)})...)
	}
	// The medium itself was never corrupted — only reads in flight — so the
	// vault must pass the deep check and close clean.
	i++
	if _, d := t.run(i, Step{Op: OpVerify}); d != nil {
		fails = append(fails, fail("bit-rot/aftermath", d)...)
	}
	if err := t.v.Close(); err != nil {
		fails = append(fails, fail("bit-rot/close", &Divergence{Index: i, Step: Step{Op: OpClose}, Msg: err.Error()})...)
	}
	return scenarios, fails
}

// RunTorture executes the full torture schedule and reports.
func RunTorture(opts TortureOpts) (TortureReport, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	stride := max(opts.Stride, 1)
	shards := max(opts.Shards, 1)

	var rep TortureReport
	trace, err := enumerate(shards)
	if err != nil {
		return rep, err
	}
	rep.InjectionPoints = len(trace)
	logf("enumerated %d injection points (stride %d)", len(trace), stride)
	record := func(f *TortureFailure) {
		if f != nil {
			rep.Failures = append(rep.Failures, *f)
			logf("FAIL %s", f)
		}
	}

	syncs, writes := 0, 0
	for idx, op := range trace {
		if op.Kind == faultfs.OpSync {
			syncs++
		}
		if op.Kind == faultfs.OpWrite || op.Kind == faultfs.OpWriteFile {
			writes++
		}
		if idx%stride != 0 {
			continue
		}
		for _, sc := range crashMatrix(op) {
			rep.CrashScenarios++
			record(runScenario(sc.name, op.Index, sc.inject, sc.keep, shards))
		}
	}
	logf("crash matrix done: %d scenarios", rep.CrashScenarios)

	// Failed fsync at every sync point: the WAL wedges, blockstore syncs
	// surface the error to the caller — either way nothing acked may be
	// lost, and nothing may be acked after the lie.
	for n := 0; n < syncs; n += stride {
		rep.FaultScenarios++
		record(runScenario("eio-sync/keep-all", n, faultfs.FailNthSync(n, faultfs.ErrInjected), faultfs.KeepAll, shards))
	}
	// ENOSPC at every write point.
	seen := 0
	for _, op := range trace {
		if op.Kind != faultfs.OpWrite && op.Kind != faultfs.OpWriteFile {
			continue
		}
		if seen%stride == 0 {
			rep.FaultScenarios++
			record(runScenario("enospc/keep-all", op.Index, faultfs.FailAt(op.Index, faultfs.ErrNoSpace), faultfs.KeepAll, shards))
		}
		seen++
	}
	logf("fault matrix done: %d scenarios (%d syncs, %d writes in trace)", rep.FaultScenarios, syncs, writes)

	n, fails := runBitRot(shards)
	rep.FaultScenarios += n
	rep.Failures = append(rep.Failures, fails...)
	logf("bit-rot done: %d scenarios", n)
	return rep, nil
}
