package core_test

import (
	"testing"

	"medvault/internal/sim"
)

// TestTortureFull runs the complete crash-recovery torture schedule over the
// vault: every mutating filesystem op the simulator's torture script
// performs gets a simulated power cut (four keep policies plus torn writes),
// a failed fsync, and ENOSPC, and every ciphertext read gets bit rot; the
// reference model judges every recovered image. Zero invariants may be
// violated, and the injection-point count is pinned exactly: it is the
// number of mutating filesystem ops the script performs, so a refactor that
// adds, drops, or reorders a single open, write, fsync, or rename on the
// write path moves it. Update tortureInjectionPoints only together with a
// deliberate change to the on-disk op sequence.
func TestTortureFull(t *testing.T) {
	rep, err := sim.RunTorture(sim.TortureOpts{Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunTorture: %v", err)
	}
	if rep.InjectionPoints != tortureInjectionPoints[1] {
		t.Errorf("enumerated %d injection points, want exactly %d", rep.InjectionPoints, tortureInjectionPoints[1])
	}
	if rep.CrashScenarios < 200 {
		t.Errorf("ran %d crash scenarios, want >= 200", rep.CrashScenarios)
	}
	if rep.FaultScenarios < 30 {
		t.Errorf("ran %d fault scenarios, want >= 30", rep.FaultScenarios)
	}
	for _, f := range rep.Failures {
		t.Errorf("invariant violated: %s", f)
	}
}

// tortureInjectionPoints is the exact mutating-fs-op count of the torture
// script, by shard count (85 and 134 when first pinned; +3 since the op
// envelope persists a flight frame for each of the script's two hold
// placements and one release, making 88 and 137). Since a version's
// ciphertext rides in its meta.wal entry, each of the script's seven
// versions writes and fsyncs no block (-14), and Close's checkpoint moves
// them to the block store with one write each (+7): 81 and 130. The
// script's two SanitizeMedia passes and rec-2's shred, each pass a
// checkpoint per shard that also relocates, make 117 and 250.
var tortureInjectionPoints = map[int]int{1: 117, 4: 250}

// TestTortureShardedOpCount pins the 4-shard fs-op sequence length the same
// way (per-shard WALs, blockstores, audit chains, and the manifest write),
// over the subsampled matrix — enumeration is always complete.
func TestTortureShardedOpCount(t *testing.T) {
	rep, err := sim.RunTorture(sim.TortureOpts{Stride: 5, Shards: 4})
	if err != nil {
		t.Fatalf("RunTorture: %v", err)
	}
	if rep.InjectionPoints != tortureInjectionPoints[4] {
		t.Errorf("enumerated %d injection points at 4 shards, want exactly %d", rep.InjectionPoints, tortureInjectionPoints[4])
	}
	for _, f := range rep.Failures {
		t.Errorf("invariant violated: %s", f)
	}
}

// TestTortureQuick exercises the subsampled CI-smoke path.
func TestTortureQuick(t *testing.T) {
	rep, err := sim.RunTorture(sim.TortureOpts{Stride: 5})
	if err != nil {
		t.Fatalf("RunTorture: %v", err)
	}
	if !rep.Passed() {
		for _, f := range rep.Failures {
			t.Errorf("invariant violated: %s", f)
		}
	}
	if rep.CrashScenarios >= 200 {
		t.Errorf("quick mode ran %d crash scenarios; expected subsampling", rep.CrashScenarios)
	}
}
