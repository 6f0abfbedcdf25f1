package sim

import "testing"

// runGolden executes one fixed-seed run and holds it to a literal: no
// divergence, and a trace hash equal to the constant captured on PR 13's
// commit — the last one with a standalone single-vault implementation. A run
// is its plan plus every generated step, and the generator draws on the
// model's state after each step, so an unchanged hash with no divergence
// means the vault answered every operation of the run as it did then. A
// refactor of the vault, the model, or the generator that changes what a
// seed produces fails here by name.
//
// Update a hash only together with a deliberate change to the generator or
// the trace format.
func runGolden(t *testing.T, opts RunOpts, hash string) {
	t.Helper()
	opts.Logf = t.Logf
	tr, d := Run(opts)
	if d != nil {
		t.Fatalf("seed %d diverged (trace hash %s): %v", opts.Seed, tr.Hash(), d)
	}
	if got := tr.Hash(); got != hash {
		t.Errorf("seed %d (%d ops, %d shards, durable=%v, failover=%v): trace hash %s, want %s",
			opts.Seed, opts.Ops, opts.Shards, opts.Durable, opts.Failover, got, hash)
	}
}
