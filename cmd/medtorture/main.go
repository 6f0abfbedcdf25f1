// Command medtorture runs the crash-recovery torture harness: a scripted
// clinical workload over a fault-injecting in-memory filesystem, with a
// simulated power cut (and fsync failure, ENOSPC, and bit rot) at every
// filesystem operation the workload performs, followed by recovery and a
// full durability audit. See internal/core/torture.go for the invariants.
//
// With -failover the same workload runs on a replicated primary instead:
// the primary is killed at every mutating fs op AND every replication
// stream boundary (before send, after apply, after ack), the warm follower
// is promoted, and the promoted vault must hold every acknowledged write
// with a clean integrity sweep, no plaintext on the medium, and the dead
// primary's epoch fenced out. See internal/repl/torture.go.
//
//	medtorture                     # full matrix: every injection point
//	medtorture -quick              # CI smoke: every fifth point
//	medtorture -shards 4           # torture a 4-shard cluster (per-shard WALs and chains)
//	medtorture -failover           # kill/promote matrix over the replication stream
//	medtorture -failover -shards 4 # failover of a sharded cluster
//	medtorture -v                  # progress per phase and per failure
package main

import (
	"flag"
	"fmt"
	"os"

	"medvault/internal/core"
	"medvault/internal/repl"
)

func main() {
	quick := flag.Bool("quick", false, "subsample the injection-point matrix (CI smoke)")
	stride := flag.Int("stride", 0, "test every Nth injection point (overrides -quick's stride)")
	shards := flag.Int("shards", 0, "cluster shard count (0 or 1 = classic single vault)")
	failover := flag.Bool("failover", false, "torture the replication stream: kill the primary at every boundary and promote the follower")
	verbose := flag.Bool("v", false, "print phase progress")
	flag.Parse()
	if *quick && *stride <= 0 {
		*stride = 5
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	shardNote := ""
	if *shards > 1 {
		shardNote = fmt.Sprintf(" (%d shards)", *shards)
	}

	if *failover {
		rep, err := repl.RunFailoverTorture(repl.FailoverOpts{Stride: *stride, Shards: *shards, Logf: logf})
		if err != nil {
			fmt.Fprintf(os.Stderr, "medtorture: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("medtorture: failover matrix: %d fs kill points, %d frame kill points ×3 boundaries, %d scenarios%s\n",
			rep.FSKillPoints, rep.FrameKillPoints, rep.Scenarios, shardNote)
		if rep.Passed() {
			fmt.Println("medtorture: every acknowledged write survived every failover")
			return
		}
		fmt.Printf("medtorture: %d invariant violations:\n", len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Printf("  %s\n", f)
		}
		os.Exit(1)
	}

	opts := core.TortureOpts{Stride: *stride, Shards: *shards}
	if *verbose {
		opts.Logf = logf
	}
	rep, err := core.RunTorture(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medtorture: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("medtorture: %d injection points, %d crash scenarios, %d fault scenarios%s\n",
		rep.InjectionPoints, rep.CrashScenarios, rep.FaultScenarios, shardNote)
	if rep.Passed() {
		fmt.Println("medtorture: all durability invariants held")
		return
	}
	fmt.Printf("medtorture: %d invariant violations:\n", len(rep.Failures))
	for _, f := range rep.Failures {
		fmt.Printf("  %s\n", f)
	}
	os.Exit(1)
}
