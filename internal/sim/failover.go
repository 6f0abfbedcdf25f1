package sim

import (
	"errors"
	"fmt"

	"medvault/internal/faultfs"
	"medvault/internal/repl"
)

// Failover torture: the replication analogue of the crash matrix. The
// torture script runs on a primary whose disk is wrapped in fault injection
// and whose capture streams to an in-process follower; the primary is then
// killed at every mutating filesystem op AND at every stream boundary
// (before send, after apply, after ack), the follower is promoted, and the
// model judges the promoted image exactly as it judges a local crash image
// (torture.judge) — plus the failover-specific invariant that the dead
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
	fsOps, frames, err := failoverScenario(o.Shards, -1, -1, repl.KillNone, &rep)
	if err != nil {
		return rep, fmt.Errorf("sim: clean failover run: %w", err)
	}
	rep.FSKillPoints, rep.FrameKillPoints = fsOps, frames
	rep.Scenarios++
	logf("failover: clean run: %d fs kill points, %d frame kill points (stride %d)", fsOps, frames, stride)

	for i := 0; i < fsOps; i += stride {
		if _, _, err := failoverScenario(o.Shards, i, -1, repl.KillNone, &rep); err != nil {
			return rep, err
		}
		rep.Scenarios++
	}
	logf("failover: fs-op kills done (%d scenarios)", rep.Scenarios)

	for _, mode := range []repl.KillMode{repl.KillSend, repl.KillApply, repl.KillAfterAck} {
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

// failoverScenario runs one primary life: the script until the scripted
// death (fs-op index killFS, or op frame killFrame at mode), then promotion
// and the judgement. It returns the clean-run op counts when nothing is
// killed. Invariant violations are appended to rep.Failures; an error return
// means the harness itself could not run.
func failoverScenario(shards, killFS, killFrame int, mode repl.KillMode, rep *FailoverReport) (fsOps, frames int, err error) {
	label := scenarioLabel(killFS, killFrame, mode)
	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, label+": "+fmt.Sprintf(format, args...))
	}
	var first strike
	if killFS >= 0 {
		first.inject = faultfs.CrashBefore(killFS)
	}
	if killFrame >= 0 {
		first.link = func(p *repl.Pipe) { p.KillAtFrame(killFrame, mode) }
	}
	t, err := newTorture(shards, true, first)
	defer t.hangUp()
	if t.capture == nil {
		// The handshake itself cannot be a kill point (kill counters start
		// at the first op frame), so this is a harness failure.
		return 0, 0, fmt.Errorf("%s: handshake: %w", label, err)
	}
	// The first generation is the primary that dies: its medium, disk
	// wrapper, link, follower and epoch.
	pmem, faulty, link, fol, staleEpoch := t.mem, t.faulty, t.link, t.fol, t.capture.Epoch()
	dead := func() bool { return faulty.Crashed() || link.Killed() }

	killed := killFS >= 0 || killFrame >= 0
	inFlight, want := -1, outcome{}
	if err == nil {
		// The dead primary is not closed: a killed process does not flush.
		var d *Divergence
		if inFlight, want, d = t.play(dead); d != nil {
			if !killed {
				return 0, 0, fmt.Errorf("clean run failed: %v", d)
			}
			fail("%v", d)
			return 0, 0, nil
		}
	}
	if killed && err == nil && inFlight < 0 && !dead() {
		// Enumeration overshot the ops this run performs — a harness bug.
		// (A kill that fires after the final ack legitimately lets the
		// script complete; that is not an overshoot.)
		return 0, 0, fmt.Errorf("%s: kill point never reached", label)
	}
	if !killed {
		if err != nil {
			return 0, 0, fmt.Errorf("clean run failed: %w", err)
		}
		fsOps, frames = faulty.MutatingOps(), link.OpFrames()
	}

	// Failover: the judgement's cut hangs up the primary and promotes the
	// follower, whose replica disk recovery opens as the new primary; the
	// promoted image owes exactly what a local crash image owes.
	if d := t.judge(faultfs.KeepAll, inFlight, want); d != nil {
		fail("promoted image fails the recovery battery: %v", d)
		return fsOps, frames, nil
	}

	// Split-brain: the dead primary's epoch must be unable to commit. A
	// revived primary reconnecting with its stale epoch is fenced at Hello,
	// and the rejection lands in the new primary's audit chain.
	var fenceDetail string
	fol.SetFenceAuditor(func(detail string) {
		fenceDetail = detail
		t.v.AuditReplicationFence(detail)
	})
	stale := repl.NewPipe(fol)
	herr := repl.NewSession(stale, nil, pmem, "vault").Hello(staleEpoch)
	stale.Kill()
	if !errors.Is(herr, repl.ErrFenced) {
		fail("stale primary (epoch %d) not fenced by promoted epoch %d: %v", staleEpoch, fol.Epoch(), herr)
	} else if fenceDetail == "" {
		fail("fence rejection was not audited")
	}
	if verr := t.v.Close(); verr != nil {
		fail("closing promoted vault: %v", verr)
	}
	return fsOps, frames, nil
}

func scenarioLabel(killFS, killFrame int, mode repl.KillMode) string {
	switch {
	case killFS >= 0:
		return fmt.Sprintf("kill at fs op %d", killFS)
	case killFrame >= 0:
		name := map[repl.KillMode]string{repl.KillSend: "before send", repl.KillApply: "after apply", repl.KillAfterAck: "after ack"}[mode]
		return fmt.Sprintf("kill at frame %d (%s)", killFrame, name)
	default:
		return "graceful switchover"
	}
}
