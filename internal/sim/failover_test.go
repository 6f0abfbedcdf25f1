package sim

import "testing"

// TestFailoverRuns drives the generator with the follower twin armed: every
// crash step promotes the warm follower and the run continues on the
// replica disk, so the full deep check (audit chains, provenance, search,
// disclosure accounting) runs against a failed-over vault at every
// generation — including on a sharded cluster.
func TestFailoverRuns(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		ops    int
		shards int
		hash   string
	}{
		{seed: 1, ops: 180, shards: 0, hash: "b8c83bfcdd2a842f9f4477dd2e84c608de22cd00ab3666e33b1c73b6585cc54d"},
		{seed: 2, ops: 180, shards: 0, hash: "d979e5bd6d3a30f2bf54f8f879b25333f6aaa79be11ad3b5afd23f19cad2ca8d"},
		{seed: 3, ops: 150, shards: 2, hash: "b91b55ce6a1252a9b57963db470cf133ec21511bcf649852fa2edbdf99236c0a"},
	} {
		runGolden(t, RunOpts{Seed: tc.seed, Ops: tc.ops, Workers: 2, Shards: tc.shards,
			Durable: true, Failover: true}, tc.hash)
	}
}

// TestFailoverTraceReplays: the failover flag lives in the Plan, so a
// recorded trace replays the same scenario — promotion included — which is
// what lets ddmin shrink a failover divergence like any other.
func TestFailoverTraceReplays(t *testing.T) {
	tr, d := Run(RunOpts{Seed: 4, Ops: 120, Workers: 2, Durable: true, Failover: true})
	if d != nil {
		t.Fatalf("generating run diverged: %v", d)
	}
	if !tr.Plan.Failover {
		t.Fatal("failover mode not recorded in the trace plan")
	}
	if d := Replay(tr, nil); d != nil {
		t.Fatalf("replay of a clean failover trace diverged: %v", d)
	}
}

// TestFailoverOffKeepsTraceHashes: Failover is omitempty in the plan
// encoding, so pre-failover traces and their hashes are untouched.
func TestFailoverOffKeepsTraceHashes(t *testing.T) {
	a, d := Run(RunOpts{Seed: 5, Ops: 60, Workers: 2, Durable: true})
	if d != nil {
		t.Fatalf("baseline run diverged: %v", d)
	}
	b, d := Run(RunOpts{Seed: 5, Ops: 60, Workers: 2, Durable: true, Failover: true})
	if d != nil {
		t.Fatalf("failover run diverged: %v", d)
	}
	if a.Hash() == b.Hash() {
		t.Fatal("failover plan must be distinguishable in the trace hash")
	}
	if got := a.Plan.Failover; got {
		t.Fatal("baseline plan has failover set")
	}
}
