package sim

import "testing"

// The sharded sim runs the same generated workloads against a multi-shard
// cluster and the shard-aware reference model: record-keyed events must land
// on (exactly) the owning shard's audit chain, record-free events on every
// chain, and the cluster-level merges must equal the model's stable-sorted
// merge of the per-shard journals.

// TestSimShardedMemory cross-checks a 4-shard cluster on its own in-memory
// disk, without fault injection.
func TestSimShardedMemory(t *testing.T) {
	for seed, hash := range map[int64]string{
		1: "aa164407c1c645e30d93e20f809d4be7994ff3d2e574aed76f3a810a791341fd",
		2: "22fc9b6b74a2659e73e437f1c8ade3600ed100306885f8bdc1be7fdd1030d931",
		3: "9f50002006cd685f58bcbce6136d661ed8575401338f20d92e63b9a779aa3a88",
	} {
		runGolden(t, RunOpts{Seed: seed, Ops: 300, Workers: 2, Shards: 4}, hash)
	}
}

// TestSimShardedDurable runs the durable 4-shard configuration: per-shard
// directories under one fault-injecting disk, with generated power cuts,
// ENOSPC faults, and bit rot hitting whichever shard owns the faulted op.
func TestSimShardedDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("durable sim runs take a few seconds")
	}
	for seed, hash := range map[int64]string{
		1: "63a9c757f86af75df698f6434ef5d856b931db96c94977782a9fe2ed1f71c935",
		2: "3bdcfd47f0c81bd82bd27fe86a9fc14dfe481bbd7e10c3fe2ad7f0166c4200cb",
	} {
		runGolden(t, RunOpts{Seed: seed, Ops: 220, Workers: 3, Shards: 4, Durable: true}, hash)
	}
}

// TestSimShardPlanHashStability pins the trace-hash contract: Shards <= 1 is
// normalized to the zero value (omitted from the encoded plan), so every
// pre-cluster trace and its hash are unchanged, while a sharded plan with
// the same seed hashes differently (it is a different run).
func TestSimShardPlanHashStability(t *testing.T) {
	base, d := Run(RunOpts{Seed: 5, Ops: 40, Workers: 1})
	if d != nil {
		t.Fatalf("seed 5 diverged: %v", d)
	}
	one, d := Run(RunOpts{Seed: 5, Ops: 40, Workers: 1, Shards: 1})
	if d != nil {
		t.Fatalf("seed 5 (shards=1) diverged: %v", d)
	}
	if base.Plan.Shards != 0 || one.Plan.Shards != 0 {
		t.Fatalf("single-shard plans must record Shards=0, got %d and %d", base.Plan.Shards, one.Plan.Shards)
	}
	if base.Hash() != one.Hash() {
		t.Fatalf("shards=1 changed the trace hash: %s vs %s", base.Hash(), one.Hash())
	}
	sharded, d := Run(RunOpts{Seed: 5, Ops: 40, Workers: 1, Shards: 4})
	if d != nil {
		t.Fatalf("seed 5 (shards=4) diverged: %v", d)
	}
	if sharded.Plan.Shards != 4 {
		t.Fatalf("sharded plan records Shards=%d, want 4", sharded.Plan.Shards)
	}
	if sharded.Hash() == base.Hash() {
		t.Fatal("a sharded plan must hash differently from the single-vault plan")
	}
}

// TestSimShardedReplay checks that sharded traces replay to the same verdict
// through the recorded plan alone.
func TestSimShardedReplay(t *testing.T) {
	tr, d := Run(RunOpts{Seed: 9, Ops: 120, Workers: 2, Shards: 3, Durable: true})
	if d != nil {
		t.Fatalf("seed 9 diverged: %v", d)
	}
	if d := Replay(tr, nil); d != nil {
		t.Fatalf("replay of a clean sharded trace diverged: %v", d)
	}
}
