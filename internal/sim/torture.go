package sim

// Crash-recovery torture. RunTorture runs tortureScript — a fixed clinical
// workload of ordinary Steps — against a vault on a fault-injecting
// faultfs.Mem, enumerates every mutating filesystem op the script performs,
// and re-runs it once per op with a strike there. A run stops at the step
// the strike surfaced in: the one op in flight. engine.judge then cuts,
// remounts and holds what recovered to the model, as it does for a medsim
// crash or fault step:
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
// The local matrix cuts power at every op under four keep policies and
// tears every write; it fails every fsync (the WAL must wedge rather than
// ack on a lying disk) and fills the disk at every write; and it rots
// single bits on ciphertext reads from the block store and from meta.wal
// (the frame CRC and AEAD tag must turn silent corruption into a loud error,
// never wrong data). Bit rot is injected only under read paths of a healthy
// vault, not during recovery itself: recovery treats an unreadable tail as
// torn, which is the designed response to a torn tail but indistinguishable
// from rot of the final segment.
//
// With Failover the script runs on a replicated primary whose capture
// streams to an in-process follower, and the strike is a kill: at every
// mutating fs op, and at every op frame before send, after apply and after
// ack. The judgement's cut promotes the follower, whose image owes exactly
// what a local crash image owes, and the dead primary's epoch must then be
// fenced out. Crash-before and crash-after an fs op yield the same follower
// state (an op is shipped only when the inner medium accepts it, and a
// crashed op returns failure either way), so the failover matrix runs one
// fs-op kill per index and leaves the finer boundaries to the stream kills.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/repl"
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
	// Stride tests every Nth injection or kill point; 0 means 1 (every
	// point). CI smoke runs use 5. Enumeration is always complete.
	Stride int
	// Failover runs the failover matrix instead of the local one: the
	// primary is killed at every fs op and stream boundary, and the warm
	// follower promoted.
	Failover bool
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// TortureFailure is one violated invariant: which scenario, at which
// injection point, and — like a medsim divergence — the step in flight and
// what broke.
type TortureFailure struct {
	Scenario string // e.g. "crash-after/keep-none" or "kill/after-ack"
	Point    int    // fs op, sync or frame index the strike hit; -1 if n/a
	Divergence
}

func (f TortureFailure) String() string {
	return fmt.Sprintf("%s point=%d: %v", f.Scenario, f.Point, &f.Divergence)
}

// TortureReport summarizes a run.
type TortureReport struct {
	InjectionPoints int // distinct mutating fs ops the script performs
	FrameKillPoints int // failover: op frames the capture ships
	CrashScenarios  int // power cuts; failover: kills plus the graceful switchover
	FaultScenarios  int // non-crash fault simulations (EIO/ENOSPC/bit rot)
	Failures        []TortureFailure
}

// Passed reports whether every invariant held in every scenario.
func (r TortureReport) Passed() bool { return len(r.Failures) == 0 }

// openTorture opens the torture vault — its name, epoch and staff — on a
// fresh medium, with first striking its first generation only.
func openTorture(o TortureOpts, first strike) (*engine, error) {
	plan := Plan{Format: traceFormat, Workers: 1, Shards: o.Shards, Durable: true, Failover: o.Failover, Name: "torture"}
	e := makeEngine(plan, tortureEpoch, first, nil)
	return e, e.open()
}

// play runs the script until a step diverges from the model. When struck
// reports that the strike fired, the divergence is that strike surfacing:
// the step is the op in flight, returned with the model's prediction for
// it. Otherwise the divergence is a failure. With no op in flight play
// returns a crash step after the script's end.
func (e *engine) play(struck func() bool) (int, Step, *outcome, *Divergence) {
	for i, s := range tortureScript {
		if want, d := e.run(i, s); d != nil {
			if struck() {
				return i, s, &want, nil
			}
			return i, s, nil, d
		}
	}
	return len(tortureScript), Step{Op: OpCrash}, nil, nil
}

// runScenario runs the script with first armed, cuts under keep and judges
// recovery. In failover mode the first generation is the primary that dies:
// the cut promotes its follower, and its stale epoch must then be fenced
// out. A scenario whose point is set must be struck. Panics anywhere in the
// scenario are failures.
func runScenario(o TortureOpts, name string, point int, first strike, keep faultfs.KeepPolicy) (fail *TortureFailure) {
	report := func(d *Divergence) *TortureFailure {
		return &TortureFailure{Scenario: name, Point: point, Divergence: *d}
	}
	defer func() {
		if r := recover(); r != nil {
			fail = report(&Divergence{Index: -1, Msg: fmt.Sprintf("panic: %v", r)})
		}
	}()
	// A strike on an open vault remembers each shard's head as it finds it:
	// that head may have left the system, so recovery must extend it too.
	struck := false
	var e *engine
	if inject := first.inject; inject != nil {
		first.inject = func(op faultfs.Op) *faultfs.Fault {
			f := inject(op)
			if f != nil && !struck && e != nil {
				for s := range e.heads {
					e.heads[s] = append(e.heads[s], e.shard(s).Head())
				}
			}
			struck = struck || f != nil
			return f
		}
	}
	e, err := openTorture(o, first)
	defer e.hangUp()
	link, fol, pmem := e.link, e.fol, e.mem
	dead := func() bool { return struck || link != nil && link.Killed() }
	var staleEpoch uint64
	if e.capture != nil {
		staleEpoch = e.capture.Epoch()
	}
	i, s, want := len(tortureScript), Step{Op: OpCrash}, (*outcome)(nil)
	switch {
	case err != nil && (!dead() || o.Failover && e.capture == nil):
		return report(&Divergence{Index: -1, Msg: "opening vault: " + err.Error()})
	case err == nil:
		// The struck vault is abandoned un-closed, as a power cut or a
		// killed process leaves it.
		var d *Divergence
		if i, s, want, d = e.play(dead); d != nil {
			return report(d)
		}
		if point >= 0 && !dead() {
			return report(divAt(i, s)("strike never fired"))
		}
	}
	if d := e.judge(i, s, keep, want); d != nil {
		return report(d)
	}
	if !o.Failover {
		return nil
	}
	// Split-brain: the dead primary's epoch must be unable to commit. A
	// revived primary reconnecting with its stale epoch is fenced at Hello,
	// and the rejection lands in the new primary's audit chain.
	var fenceDetail string
	fol.SetFenceAuditor(func(detail string) {
		fenceDetail = detail
		e.v.AuditReplicationFence(detail)
	})
	stale := repl.NewPipe(fol)
	herr := repl.NewSession(stale, nil, pmem, "vault").Hello(staleEpoch)
	stale.Kill()
	switch {
	case !errors.Is(herr, repl.ErrFenced):
		return report(divAt(i, s)("stale primary (epoch %d) not fenced by promoted epoch %d: %v", staleEpoch, fol.Epoch(), herr))
	case fenceDetail == "":
		return report(divAt(i, s)("fence rejection was not audited"))
	}
	if err := e.v.Close(); err != nil {
		return report(divAt(i, s)("closing promoted vault: %v", err))
	}
	return nil
}

// enumerate runs the script once, fault-free, recording every mutating fs
// op and, in failover mode, counting the op frames the capture ships. It
// also sanity-checks the harness itself: the clean image — in failover mode
// a graceful switchover — must pass the judgement.
func enumerate(o TortureOpts) (trace []faultfs.Op, frames int, err error) {
	var link *repl.Pipe
	first := strike{
		inject: func(op faultfs.Op) *faultfs.Fault {
			if op.Index >= 0 {
				trace = append(trace, op)
			}
			return nil
		},
		link: func(p *repl.Pipe) { link = p },
	}
	if f := runScenario(o, "clean", -1, first, faultfs.KeepAll); f != nil {
		return nil, 0, fmt.Errorf("torture: clean run fails its own oracle: %s", f)
	}
	if link != nil {
		frames = link.OpFrames()
	}
	return trace, frames, nil
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
func runBitRot(o TortureOpts) (int, []TortureFailure) {
	fail := func(name string, d *Divergence) []TortureFailure {
		return []TortureFailure{{Scenario: name, Point: -1, Divergence: *d}}
	}
	e, err := openTorture(o, strike{})
	if err != nil {
		return 0, fail("bit-rot/setup", &Divergence{Index: -1, Msg: err.Error()})
	}
	i, _, _, d := e.play(func() bool { return false })
	if d != nil {
		return 0, fail("bit-rot/setup", d)
	}
	if _, d := e.run(i, tortureWrite(OpPut, "rot-0", 1)); d != nil {
		return 0, fail("bit-rot/setup", d)
	}

	var fails []TortureFailure
	scenarios, inWAL, inBlocks := 0, 0, 0
	for _, id := range e.model.liveIDs() {
		for n := range e.model.records[id].Versions {
			for skip := 0; skip <= 1; skip++ {
				i++
				scenarios++
				e.inj.rotted = ""
				s := Step{Op: OpGetVersion, Actor: "dr-house", Record: id, Version: uint64(n + 1), Rot: true, N: skip}
				if _, d := e.run(i, s); d != nil {
					fails = append(fails, fail(fmt.Sprintf("bit-rot/read-%d", skip), d)...)
				}
				switch {
				case strings.Contains(e.inj.rotted, "/meta.wal"):
					inWAL++
				case strings.Contains(e.inj.rotted, "/blocks/"):
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
	if _, d := e.run(i, Step{Op: OpVerify}); d != nil {
		fails = append(fails, fail("bit-rot/aftermath", d)...)
	}
	if err := e.v.Close(); err != nil {
		fails = append(fails, fail("bit-rot/close", &Divergence{Index: i, Step: Step{Op: OpClose}, Msg: err.Error()})...)
	}
	return scenarios, fails
}

// killModes names the three stream boundaries a failover kill lands on.
var killModes = []struct {
	name string
	mode repl.KillMode
}{{"kill/before-send", repl.KillSend}, {"kill/after-apply", repl.KillApply}, {"kill/after-ack", repl.KillAfterAck}}

// RunTorture executes the full torture schedule — the local matrix, or with
// Failover the failover matrix — and reports.
func RunTorture(opts TortureOpts) (TortureReport, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	stride := max(opts.Stride, 1)

	var rep TortureReport
	trace, frames, err := enumerate(opts)
	if err != nil {
		return rep, err
	}
	rep.InjectionPoints, rep.FrameKillPoints = len(trace), frames
	logf("enumerated %d injection points, %d frame kill points (stride %d)", len(trace), frames, stride)
	scenario := func(count *int, name string, point int, first strike, keep faultfs.KeepPolicy) {
		*count++
		if f := runScenario(opts, name, point, first, keep); f != nil {
			rep.Failures = append(rep.Failures, *f)
			logf("FAIL %s", f)
		}
	}

	if opts.Failover {
		rep.CrashScenarios++ // the clean run is the graceful switchover
		for idx, op := range trace {
			if idx%stride == 0 {
				scenario(&rep.CrashScenarios, "kill/fs-op", op.Index, strike{inject: faultfs.CrashBefore(op.Index)}, faultfs.KeepAll)
			}
		}
		for _, k := range killModes {
			for n := 0; n < frames; n += stride {
				scenario(&rep.CrashScenarios, k.name, n, strike{link: func(p *repl.Pipe) { p.KillAtFrame(n, k.mode) }}, faultfs.KeepAll)
			}
		}
		logf("failover matrix done: %d scenarios, %d failures", rep.CrashScenarios, len(rep.Failures))
		return rep, nil
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
			scenario(&rep.CrashScenarios, sc.name, op.Index, strike{inject: sc.inject}, sc.keep)
		}
	}
	logf("crash matrix done: %d scenarios", rep.CrashScenarios)

	// Failed fsync at every sync point: the WAL wedges, blockstore syncs
	// surface the error to the caller — either way nothing acked may be
	// lost, and nothing may be acked after the lie. ENOSPC at every write.
	for n := 0; n < syncs; n += stride {
		scenario(&rep.FaultScenarios, "eio-sync/keep-all", n, strike{inject: faultfs.FailNthSync(n, faultfs.ErrInjected)}, faultfs.KeepAll)
	}
	seen := 0
	for _, op := range trace {
		if op.Kind != faultfs.OpWrite && op.Kind != faultfs.OpWriteFile {
			continue
		}
		if seen%stride == 0 {
			scenario(&rep.FaultScenarios, "enospc/keep-all", op.Index, strike{inject: faultfs.FailAt(op.Index, faultfs.ErrNoSpace)}, faultfs.KeepAll)
		}
		seen++
	}
	logf("fault matrix done: %d scenarios (%d syncs, %d writes in trace)", rep.FaultScenarios, syncs, writes)

	n, fails := runBitRot(opts)
	rep.FaultScenarios += n
	rep.Failures = append(rep.Failures, fails...)
	logf("bit-rot done: %d scenarios", n)
	return rep, nil
}
