package repl

import (
	"errors"
	"fmt"

	"medvault/internal/core"
	"medvault/internal/faultfs"
)

// Failover torture: the replication analogue of the core crash matrix. The
// scripted clinical workload runs on a primary whose disk is wrapped in
// fault injection and whose capture streams to an in-process follower; the
// primary is then killed at every mutating filesystem op AND at every
// stream boundary (before send, after apply, after ack), the follower is
// promoted, and the promoted image is put through the same battery the
// local torture runs (core's recoverAndCheck): the flight tail decodes and
// claims nothing recovery loses, two recovery passes each return every
// acknowledged write with its exact body and a clean VerifyAll, no plaintext
// on the medium — plus the failover-specific invariant that the dead
// primary's epoch can no longer commit.
//
// One deliberate collapse: crash-before and crash-after an fs op yield the
// same follower state (an op is shipped only when the inner medium accepts
// it, and a crashed op returns failure either way), so the matrix runs one
// fs-op kill per index and leaves the finer boundaries to the three stream
// kill modes.

// FailoverOpts configures a failover torture run.
type FailoverOpts struct {
	// Stride tests every Nth kill point; 0 means 1 (every point). CI smoke
	// runs use 5.
	Stride int
	// Shards is the cluster shard count (0 or 1 = classic single vault).
	Shards int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// FailoverReport is the outcome of a failover torture run.
type FailoverReport struct {
	FSKillPoints    int // mutating fs ops in the clean run
	FrameKillPoints int // op frames in the clean run
	Scenarios       int // kill scenarios executed (plus the graceful control)
	Failures        []string
}

// Passed reports whether every invariant held.
func (r FailoverReport) Passed() bool { return len(r.Failures) == 0 }

// tortureRoot is the replicated directory on both sides, matching the core
// torture harness's vault dir.
const tortureRoot = "vault"

// RunFailoverTorture enumerates kill points and checks every failover.
func RunFailoverTorture(o FailoverOpts) (FailoverReport, error) {
	stride := max(o.Stride, 1)
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var rep FailoverReport

	// Clean run: count the kill points and prove the graceful path — a
	// follower promoted with no failure at all must hold everything.
	fsOps, frames, err := failoverScenario(o.Shards, -1, -1, KillNone, &rep)
	if err != nil {
		return rep, fmt.Errorf("repl: clean failover run: %w", err)
	}
	rep.FSKillPoints, rep.FrameKillPoints = fsOps, frames
	rep.Scenarios++
	logf("failover: clean run: %d fs kill points, %d frame kill points (stride %d)", fsOps, frames, stride)

	for i := 0; i < fsOps; i += stride {
		if _, _, err := failoverScenario(o.Shards, i, -1, KillNone, &rep); err != nil {
			return rep, err
		}
		rep.Scenarios++
	}
	logf("failover: fs-op kills done (%d scenarios)", rep.Scenarios)

	for _, mode := range []KillMode{KillSend, KillApply, KillAfterAck} {
		for n := 0; n < frames; n += stride {
			if _, _, err := failoverScenario(o.Shards, -1, n, mode, &rep); err != nil {
				return rep, err
			}
			rep.Scenarios++
		}
	}
	logf("failover: stream-boundary kills done (%d scenarios, %d failures)", rep.Scenarios, len(rep.Failures))
	return rep, nil
}

// failoverScenario runs one primary life: workload until the scripted death
// (fs-op index killFS, or op frame killFrame at mode), then promotion and
// the full audit. It returns the clean-run op counts when nothing is killed.
// Invariant violations are appended to rep.Failures; an error return means
// the harness itself could not run.
func failoverScenario(shards, killFS, killFrame int, mode KillMode, rep *FailoverReport) (fsOps, frames int, err error) {
	label := scenarioLabel(killFS, killFrame, mode)
	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, label+": "+fmt.Sprintf(format, args...))
	}

	pmem := faultfs.NewMem()
	fmem := faultfs.NewMem()
	var inject faultfs.Injector
	if killFS >= 0 {
		inject = faultfs.CrashBefore(killFS)
	}
	faulty := faultfs.NewFaulty(pmem, inject)

	fol, err := NewFollower(fmem, tortureRoot)
	if err != nil {
		return 0, 0, err
	}
	pipe := NewPipe(fol)
	defer pipe.Kill()
	if killFrame >= 0 {
		pipe.KillAtFrame(killFrame, mode)
	}
	capture, err := NewCapture(faulty, Config{
		Session: NewSession(pipe, nil, pmem, tortureRoot),
		Root:    tortureRoot,
		Raw:     pmem,
		Strict:  true,
	})
	if err != nil {
		// The handshake itself cannot be a kill point (kill counters start
		// at the first op frame), so this is a harness failure.
		return 0, 0, fmt.Errorf("%s: handshake: %w", label, err)
	}

	oracle := core.NewTortureOracle()
	v, vc, err := core.OpenTortureVault(capture, shards)
	if err == nil {
		err = core.RunTortureWorkload(v, vc, oracle)
		// The dead primary is not closed: a killed process does not flush.
	}
	killed := killFS >= 0 || killFrame >= 0
	if killed && err == nil && !(faulty.Crashed() || pipe.Killed()) {
		// Enumeration overshot the ops this run performs — a harness bug.
		// (A kill that fires after the final ack legitimately lets the
		// workload complete; that is not an overshoot.)
		return 0, 0, fmt.Errorf("%s: kill point never reached", label)
	}
	if !killed {
		if err != nil {
			return 0, 0, fmt.Errorf("clean run failed: %w", err)
		}
		fsOps = faulty.MutatingOps()
		frames = pipe.OpFrames()
	}

	// Failover: the primary dies here if the script has not killed it yet,
	// and once the follower's loop has seen its end of the link close, the
	// follower is promoted and its directory opened as the new primary.
	// Recovery replays the replicated WAL tail exactly as it would a local
	// one.
	pipe.Kill()
	newEpoch, err := fol.Promote()
	if err != nil {
		fail("promote: %v", err)
		return fsOps, frames, nil
	}
	// The promoted image owes exactly what a local crash image owes, so it
	// gets the same battery; the vault is then opened once more to receive
	// the fence probe below.
	if cerr := oracle.RecoverAndCheck(fmem, shards); cerr != nil {
		fail("promoted image fails the recovery battery: %v", cerr)
	}
	pv, _, err := core.OpenTortureVault(fmem, shards)
	if err != nil {
		fail("promoted vault did not open: %v", err)
		return fsOps, frames, nil
	}

	// Split-brain: the dead primary's epoch must be unable to commit. A
	// revived primary reconnecting with its stale epoch is fenced at Hello,
	// and the rejection lands in the promoted vault's audit chain.
	var fenceDetail string
	fol.SetFenceAuditor(func(detail string) {
		fenceDetail = detail
		pv.AuditReplicationFence(detail)
	})
	stale := NewPipe(fol)
	herr := NewSession(stale, nil, pmem, tortureRoot).Hello(capture.Epoch())
	stale.Kill()
	if !errors.Is(herr, ErrFenced) {
		fail("stale primary (epoch %d) not fenced by promoted epoch %d: %v", capture.Epoch(), newEpoch, herr)
	} else if fenceDetail == "" {
		fail("fence rejection was not audited")
	}
	if verr := pv.Close(); verr != nil {
		fail("closing promoted vault: %v", verr)
	}
	return fsOps, frames, nil
}

func scenarioLabel(killFS, killFrame int, mode KillMode) string {
	switch {
	case killFS >= 0:
		return fmt.Sprintf("kill at fs op %d", killFS)
	case killFrame >= 0:
		name := map[KillMode]string{KillSend: "before send", KillApply: "after apply", KillAfterAck: "after ack"}[mode]
		return fmt.Sprintf("kill at frame %d (%s)", killFrame, name)
	default:
		return "graceful switchover"
	}
}
