package repl_test

import (
	"runtime"
	"testing"
	"time"

	"medvault/internal/sim"
)

// TestFailoverTorture runs a strided slice of the simulator's kill-point
// matrix over replication on every `go test`: kill the primary at sampled
// fs-op and stream boundaries, promote, and have the model judge the
// promoted vault. CI runs the full matrix via `medtorture -failover`.
func TestFailoverTorture(t *testing.T) {
	stride := 7
	if testing.Short() {
		stride = 23
	}
	rep, err := sim.RunFailoverTorture(sim.FailoverOpts{Stride: stride, Shards: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("failover torture harness: %v", err)
	}
	for _, f := range rep.Failures {
		t.Errorf("invariant violated: %s", f)
	}
	// Exact counts: one kill point per mutating fs op the torture script
	// performs — the same 117 the local torture enumerates — and one per op
	// frame the capture ships. A refactor that changes the on-disk op
	// sequence moves these numbers. (PR 13 captured 85 + 90; the op envelope
	// added one flight-segment write, and its frame, per hold operation:
	// 88 + 93. Inline ciphertext took each version's block write and fsync,
	// 14 ops and frames, and added Close's block write of each of the seven
	// versions: 81 + 86. Two SanitizeMedia passes and a second shred in the
	// script: 117 + 122.)
	if rep.FSKillPoints != 117 || rep.FrameKillPoints != 122 {
		t.Errorf("enumerated %d fs + %d frame kill points, want exactly 117 + 122", rep.FSKillPoints, rep.FrameKillPoints)
	}
}

// TestFailoverTortureLeavesNoGoroutine: every scenario hangs up its links
// and waits for the follower's loop, so a run ends with the goroutines it
// started with.
func TestFailoverTortureLeavesNoGoroutine(t *testing.T) {
	before := settledGoroutines()
	rep, err := sim.RunFailoverTorture(sim.FailoverOpts{Stride: 5, Shards: 1})
	if err != nil || !rep.Passed() {
		t.Fatalf("quick failover torture: %v, %v", err, rep.Failures)
	}
	if after := settledGoroutines(); after != before {
		t.Fatalf("%d goroutines before the torture, %d after", before, after)
	}
}

// settledGoroutines counts goroutines once the count holds still, so a
// finalizer or an earlier test's goroutine on its way out is not counted.
func settledGoroutines() int {
	runtime.GC()
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestFailoverTortureSharded proves the failover path composes with
// horizontal sharding: the capture sits below the shard router, so a
// promoted follower must reassemble the entire cluster.
func TestFailoverTortureSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded failover matrix skipped in -short")
	}
	rep, err := sim.RunFailoverTorture(sim.FailoverOpts{Stride: 19, Shards: 2, Logf: t.Logf})
	if err != nil {
		t.Fatalf("failover torture harness: %v", err)
	}
	for _, f := range rep.Failures {
		t.Errorf("invariant violated: %s", f)
	}
}
