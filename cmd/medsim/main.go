// Command medsim runs the deterministic compliance simulator: a seeded
// op-sequence generator drives a real vault through every public operation —
// valid, invalid, and faulted — while a reference model predicts every
// observable (results, audit journal, provenance chains, disclosure
// accounting, search hits, retention sweeps). The first divergence fails the
// run; the trace is then minimized with delta debugging and written next to
// the full trace for replay.
//
//	medsim -quick                 # CI battery: fixed seeds, both backends, 1- and 4-shard
//	medsim -seed 42 -ops 2000     # one long seeded run
//	medsim -quick -shards 4       # the battery forced onto a 4-shard cluster
//	medsim -replay failure.trace  # re-execute a recorded (shrunk) trace
//
// Exit codes: 0 all runs clean, 1 divergence found, 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"os"

	"medvault/internal/sim"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "generator seed")
		ops      = flag.Int("ops", 500, "operations to generate")
		workers  = flag.Int("workers", 2, "logical writers to interleave")
		shards   = flag.Int("shards", 0, "cluster shard count (0 = battery defaults / single vault)")
		durable  = flag.Bool("durable", true, "vault over the fault-injecting memory disk (false = the vault's own in-memory disk, no faults)")
		failover = flag.Bool("failover", false, "durable mode: replicate to a warm follower and promote it at every crash step")
		quick    = flag.Bool("quick", false, "run the fixed CI battery instead of a single seed")
		replay   = flag.String("replay", "", "replay a recorded trace file instead of generating")
		outPath  = flag.String("trace", "", "write the run's trace here (failures always write medsim-failure-<seed>.trace)")
		verbose  = flag.Bool("v", false, "verbose progress")
	)
	flag.Parse()

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}

	if *replay != "" {
		t, err := sim.ReadTraceFile(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "medsim: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("replaying %s: %d steps, seed %d, trace %s\n", *replay, len(t.Steps), t.Plan.Seed, short(t.Hash()))
		if d := sim.Replay(t, logf); d != nil {
			fmt.Printf("DIVERGENCE: %v\n", d)
			os.Exit(1)
		}
		fmt.Println("replay clean: vault matches the reference model at every step")
		return
	}

	runs := []sim.RunOpts{{Seed: *seed, Ops: *ops, Workers: *workers, Shards: *shards, Durable: *durable, Failover: *failover, Logf: logf}}
	if *quick {
		runs = quickBattery(logf)
		if *shards > 1 {
			// An explicit -shards forces the whole battery onto that cluster
			// size, so CI can run the same seeds at 1 and 4 shards.
			for i := range runs {
				runs[i].Shards = *shards
			}
		}
	}
	for _, opts := range runs {
		backend := "memory"
		if opts.Durable {
			backend = "durable+faults"
			if opts.Failover {
				backend = "durable+failover"
			}
		}
		t, d := sim.Run(opts)
		if d == nil {
			shardNote := ""
			if opts.Shards > 1 {
				shardNote = fmt.Sprintf("  %d shards", opts.Shards)
			}
			fmt.Printf("seed %-4d %-15s %4d ops  %3d workers%s  clean  trace %s\n",
				opts.Seed, backend, opts.Ops, opts.Workers, shardNote, short(t.Hash()))
			if *outPath != "" && !*quick {
				if err := t.WriteFile(*outPath); err != nil {
					fmt.Fprintf(os.Stderr, "medsim: writing trace: %v\n", err)
					os.Exit(2)
				}
			}
			continue
		}
		fmt.Printf("seed %d %s: DIVERGENCE at step %d: %v\n", opts.Seed, backend, d.Index, d)
		fail(t, d, logf)
	}
}

// quickBattery is the CI configuration: a fixed spread of seeds over both
// backends, small enough to run in seconds, adversarial enough that
// reverting a durability fix or a compliance check fails it.
func quickBattery(logf func(string, ...any)) []sim.RunOpts {
	var runs []sim.RunOpts
	for seed := int64(1); seed <= 4; seed++ {
		runs = append(runs, sim.RunOpts{Seed: seed, Ops: 220, Workers: 2, Durable: true, Logf: logf})
	}
	for seed := int64(1); seed <= 2; seed++ {
		runs = append(runs, sim.RunOpts{Seed: seed, Ops: 260, Workers: 1, Logf: logf})
	}
	runs = append(runs, sim.RunOpts{Seed: 9, Ops: 300, Workers: 4, Durable: true, Logf: logf})
	// Sharded entries: the same generator driving a 4-shard cluster, so the
	// routing, per-shard audit chains, and merge ordering are in the default
	// battery, not just behind an explicit -shards.
	runs = append(runs,
		sim.RunOpts{Seed: 1, Ops: 220, Workers: 2, Shards: 4, Durable: true, Logf: logf},
		sim.RunOpts{Seed: 2, Ops: 260, Workers: 2, Shards: 4, Logf: logf},
	)
	// Failover entries: the same seeds with the warm-follower twin armed, so
	// every crash in the battery also exercises promotion — single vault and
	// sharded.
	runs = append(runs,
		sim.RunOpts{Seed: 3, Ops: 220, Workers: 2, Durable: true, Failover: true, Logf: logf},
		sim.RunOpts{Seed: 4, Ops: 220, Workers: 2, Shards: 4, Durable: true, Failover: true, Logf: logf},
	)
	return runs
}

// fail writes the full trace, shrinks it to a minimal repro, writes that
// too, and exits 1.
func fail(t sim.Trace, d *sim.Divergence, logf func(string, ...any)) {
	base := fmt.Sprintf("medsim-failure-%d", t.Plan.Seed)
	full := base + ".trace"
	if err := t.WriteFile(full); err != nil {
		fmt.Fprintf(os.Stderr, "medsim: writing %s: %v\n", full, err)
		os.Exit(1)
	}
	fmt.Printf("full trace (%d steps) written to %s; shrinking...\n", len(t.Steps), full)
	min := sim.Shrink(t, func(c sim.Trace) bool { return sim.Replay(c, nil) != nil }, 800, logf)
	minPath := base + ".min.trace"
	if err := min.WriteFile(minPath); err != nil {
		fmt.Fprintf(os.Stderr, "medsim: writing %s: %v\n", minPath, err)
		os.Exit(1)
	}
	if rd := sim.Replay(min, nil); rd != nil {
		fmt.Printf("minimal repro (%d steps) written to %s\n", len(min.Steps), minPath)
		fmt.Printf("minimal divergence: %v\n", rd)
		for i, s := range min.Steps {
			fmt.Printf("  %2d %s\n", i, s)
		}
	}
	fmt.Printf("reproduce with: go run ./cmd/medsim -replay %s\n", minPath)
	os.Exit(1)
}

// short abbreviates a trace hash for one-line reports.
func short(h string) string { return h[:12] }
