package sim

import (
	"bytes"
	"path/filepath"
	"testing"

	"medvault/internal/obs"
)

// TestSimFixedSeedsMemory is the conformance entry point that replaced the
// old internal/core oracle test: the full reference model cross-checked
// against a vault on its own in-memory disk, without fault injection, over
// several hundred generated ops.
func TestSimFixedSeedsMemory(t *testing.T) {
	for seed, hash := range map[int64]string{
		1: "76699c3d9074262b121369360b07e734c5571e79854066b59f8f1159ed9371b5",
		2: "6488ffc3260e280e5510ba96d32b81c3dc84dc0bc8d671deab8f78c4e5a91cc5",
		3: "b771b18221c804b43c87e10e392ec504023e2d222d9dc9a7dd26da81300a5b4d",
		4: "f41e57d93d99a660c6cf17c6f18d6a141c0b36d407fef9c18602c5797d4bc09b",
	} {
		runGolden(t, RunOpts{Seed: seed, Ops: 300, Workers: 2}, hash)
	}
}

// TestSimFixedSeedsDurable runs the durable configuration: file-backed
// vault over the fault-injecting memory disk, with generated power cuts,
// ENOSPC faults, and bit rot in the op stream.
func TestSimFixedSeedsDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("durable sim runs take a few seconds")
	}
	for seed, hash := range map[int64]string{
		1: "26cc9c1165eca1d0507f41d12463a661d5eabd7f2ae354307a9bbd9841ab03d1",
		2: "13e8fb8686e3f14699aedf46b30cd8205546306bd5c37063b62052ff50af5969",
		3: "afbf7e16395cf434c243a91f8ff8726a67d8ba49b5b1fb227e5f3394a8c4309b",
	} {
		runGolden(t, RunOpts{Seed: seed, Ops: 250, Workers: 3, Durable: true}, hash)
	}
}

// TestSimDeterministic proves the core reproducibility contract: the same
// seed yields byte-identical traces, and replaying a recorded trace yields
// the same (non-)divergence.
func TestSimDeterministic(t *testing.T) {
	opts := RunOpts{Seed: 7, Ops: 150, Workers: 2, Durable: true}
	t1, d1 := Run(opts)
	t2, d2 := Run(opts)
	if (d1 == nil) != (d2 == nil) {
		t.Fatalf("same seed, different verdicts: %v vs %v", d1, d2)
	}
	if t1.Hash() != t2.Hash() {
		t.Fatalf("same seed, different traces: %s vs %s", t1.Hash(), t2.Hash())
	}
	if d := Replay(t1, nil); d != nil {
		t.Fatalf("replay of a clean trace diverged: %v", d)
	}
}

// TestTraceRoundTrip checks the JSON-lines codec and that hashing is stable
// across encode/decode.
func TestTraceRoundTrip(t *testing.T) {
	tr, d := Run(RunOpts{Seed: 11, Ops: 60, Workers: 1})
	if d != nil {
		t.Fatalf("seed 11 diverged: %v", d)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != tr.Hash() {
		t.Fatalf("hash changed across codec: %s vs %s", back.Hash(), tr.Hash())
	}
	if back.Plan != tr.Plan || len(back.Steps) != len(tr.Steps) {
		t.Fatalf("trace changed across codec: %+v vs %+v", back.Plan, tr.Plan)
	}

	path := filepath.Join(t.TempDir(), "run.trace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	fromFile, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Hash() != tr.Hash() {
		t.Fatalf("hash changed across file round trip")
	}
}

// TestShrinkDdmin exercises the minimizer against a synthetic predicate:
// the "failure" needs two specific steps, far apart, among decoys. The
// shrinker must find exactly that pair.
func TestShrinkDdmin(t *testing.T) {
	steps := make([]Step, 40)
	for i := range steps {
		steps[i] = Step{Op: OpGet, Record: "decoy"}
	}
	steps[3] = Step{Op: OpPut, Record: "a"}
	steps[31] = Step{Op: OpShred, Record: "a"}
	fails := func(tr Trace) bool {
		havePut, haveShred := false, false
		for _, s := range tr.Steps {
			if s.Op == OpPut && s.Record == "a" {
				havePut = true
			}
			if s.Op == OpShred && s.Record == "a" && havePut {
				haveShred = true
			}
		}
		return haveShred
	}
	tr := Trace{Plan: Plan{Format: traceFormat, Seed: 1, Workers: 1}, Steps: steps}
	if !fails(tr) {
		t.Fatal("synthetic predicate does not fail the full trace")
	}
	min := Shrink(tr, fails, 0, t.Logf)
	if len(min.Steps) != 2 {
		t.Fatalf("shrunk to %d steps, want 2: %v", len(min.Steps), min.Steps)
	}
	if min.Steps[0].Op != OpPut || min.Steps[1].Op != OpShred {
		t.Fatalf("wrong minimal pair: %v", min.Steps)
	}
}

// TestShrinkRealDivergence plants a real divergence — a trace whose final
// expectation is violated by tampering with the model via a bogus step
// sequence is hard to fake, so instead verify the predicate wiring: a
// shrunk subsequence of a clean trace must also be clean (dynamic
// expectations make every subsequence well-formed).
func TestShrinkSubsequencesWellFormed(t *testing.T) {
	tr, d := Run(RunOpts{Seed: 5, Ops: 80, Workers: 2})
	if d != nil {
		t.Fatalf("seed 5 diverged: %v", d)
	}
	// Every prefix and every strided subsequence must execute without
	// crashing the harness (they may or may not diverge — they must not
	// panic or wedge).
	for _, stride := range []int{2, 3} {
		var sub []Step
		for i := 0; i < len(tr.Steps); i += stride {
			sub = append(sub, tr.Steps[i])
		}
		_ = Replay(Trace{Plan: tr.Plan, Steps: sub}, nil)
	}
}

// TestFlightClaimsNameHeldOps pins the flight-tail rule: per record, the
// persisted ok events of puts, corrections, shreds and holds are a
// subsequence of the ops the model holds as acked — any of them may be lost
// from the unsynced tail, a hold may be placed again after its release, and
// nothing acked may be claimed that the model does not hold.
func TestFlightClaimsNameHeldOps(t *testing.T) {
	e := makeEngine(Plan{Name: "claims"}, simEpoch, strike{}, nil)
	if err := e.open(); err != nil {
		t.Fatal(err)
	}
	defer e.v.Close()
	e.model.acked = map[string][]OpKind{
		"r1": {OpPut, OpPlaceHold, OpReleaseHold, OpPlaceHold},
		"r2": {}, // its put did not land
	}
	ok := func(kind OpKind, id string) obs.FlightEvent {
		return obs.FlightEvent{Kind: string(kind), Record: e.v.RecordToken(id), Outcome: "ok"}
	}
	for _, tc := range []struct {
		name string
		tail []obs.FlightEvent
		held bool
	}{
		{"every op", []obs.FlightEvent{ok(OpPut, "r1"), ok(OpPlaceHold, "r1"), ok(OpReleaseHold, "r1"), ok(OpPlaceHold, "r1")}, true},
		{"release lost, hold placed again", []obs.FlightEvent{ok(OpPut, "r1"), ok(OpPlaceHold, "r1"), ok(OpPlaceHold, "r1")}, true},
		{"failed op", []obs.FlightEvent{{Kind: string(OpPut), Record: e.v.RecordToken("r2"), Outcome: "error"}}, true},
		{"put that did not land", []obs.FlightEvent{ok(OpPut, "r2")}, false},
		{"unknown record", []obs.FlightEvent{ok(OpShred, "r9")}, false},
		{"out of ack order", []obs.FlightEvent{ok(OpReleaseHold, "r1"), ok(OpPut, "r1")}, false},
		{"one placement too many", []obs.FlightEvent{ok(OpPlaceHold, "r1"), ok(OpPlaceHold, "r1"), ok(OpPlaceHold, "r1")}, false},
	} {
		if d := e.checkFlightClaims(0, Step{Op: OpCrash}, tc.tail); (d == nil) != tc.held {
			t.Errorf("%s: divergence %v, want held=%v", tc.name, d, tc.held)
		}
	}
}
