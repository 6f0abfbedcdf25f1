package repl

import (
	"context"
	"errors"
	"strings"
	"testing"

	"medvault/internal/audit"
	"medvault/internal/faultfs"
)

// TestHelloEpochTable pins the fencing comparison at the handshake: a
// lower epoch is rejected, an equal one accepted, a higher one adopted AND
// persisted so the decision survives a follower restart.
func TestHelloEpochTable(t *testing.T) {
	cases := []struct {
		name       string
		stored     uint64 // epoch persisted in repl.state before the hello
		hello      uint64
		wantReject bool
		wantEpoch  uint64 // follower epoch after (and after a reload)
	}{
		{"stale primary rejected", 5, 4, true, 5},
		{"ancient primary rejected", 5, 0, true, 5},
		{"current primary accepted", 5, 5, false, 5},
		{"newer primary adopted", 5, 7, false, 7},
		{"fresh follower accepts any primary", 0, 1, false, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := faultfs.NewMem()
			if tc.stored > 0 {
				if err := writeEpoch(fsys, testRoot, tc.stored); err != nil {
					t.Fatal(err)
				}
			}
			fol, err := NewFollower(fsys, testRoot)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := fol.handlePayload(0, payload(tc.hello, frameHello, nil))
			if err != nil {
				t.Fatalf("hello must never be connection-fatal: %v", err)
			}
			_, kind, _, ok := splitPayload(resp)
			if !ok {
				t.Fatal("unparseable response")
			}
			if tc.wantReject && kind != frameReject {
				t.Fatalf("response kind %d, want reject", kind)
			}
			if !tc.wantReject && kind != frameHelloAck {
				t.Fatalf("response kind %d, want hello ack", kind)
			}
			if got := fol.Epoch(); got != tc.wantEpoch {
				t.Fatalf("epoch %d after hello, want %d", got, tc.wantEpoch)
			}
			// The comparison must be durable, not in-memory.
			reloaded, err := NewFollower(fsys, testRoot)
			if err != nil {
				t.Fatal(err)
			}
			if got := reloaded.Epoch(); got != tc.wantEpoch {
				t.Fatalf("epoch %d after reload, want %d (decision not persisted)", got, tc.wantEpoch)
			}
		})
	}
}

// TestOpFrameEpochTable pins the fencing comparison on the data path: stale
// op frames are rejected and audited; current and newer ones apply (a newer
// epoch on a non-hello frame is accepted but only Hello raises the stored
// epoch).
func TestOpFrameEpochTable(t *testing.T) {
	cases := []struct {
		name       string
		opEpoch    uint64 // follower has accepted epoch 5 at hello
		wantReject bool
		wantEpoch  uint64 // follower epoch after the op
	}{
		{"stale op rejected", 4, true, 5},
		{"current op applied", 5, false, 5},
		{"newer op applied without adoption", 6, false, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := faultfs.NewMem()
			if err := writeEpoch(fsys, testRoot, 5); err != nil {
				t.Fatal(err)
			}
			fol, err := NewFollower(fsys, testRoot)
			if err != nil {
				t.Fatal(err)
			}
			var audited []string
			fol.SetFenceAuditor(func(d string) { audited = append(audited, d) })
			rejectionsBefore := mFenceRejections.Value()
			if _, err := fol.handlePayload(0, payload(5, frameHello, nil)); err != nil {
				t.Fatal(err)
			}
			op := encodeOp(OpRecord{Kind: opMkdirAll, Path: "sub", Perm: 0o700})
			resp, err := fol.handlePayload(1, payload(tc.opEpoch, frameOp, op))
			if err != nil {
				t.Fatalf("epoch mismatch must reject, not kill the connection: %v", err)
			}
			_, kind, _, ok := splitPayload(resp)
			if !ok {
				t.Fatal("unparseable response")
			}
			if tc.wantReject {
				if kind != frameReject {
					t.Fatalf("response kind %d, want reject", kind)
				}
				if len(audited) == 0 {
					t.Fatal("stale-epoch rejection was not audited")
				}
				if !strings.Contains(audited[0], "stale epoch") {
					t.Fatalf("audit detail %q does not name the cause", audited[0])
				}
				if mFenceRejections.Value() == rejectionsBefore {
					t.Fatal("fence rejection not counted")
				}
				if _, err := fsys.Stat(testRoot + "/sub"); err == nil {
					t.Fatal("rejected op was applied anyway")
				}
			} else {
				if kind != frameAck {
					t.Fatalf("response kind %d, want ack", kind)
				}
				if _, err := fsys.Stat(testRoot + "/sub"); err != nil {
					t.Fatalf("acked op not applied: %v", err)
				}
			}
			if got := fol.Epoch(); got != tc.wantEpoch {
				t.Fatalf("epoch %d after op, want %d", got, tc.wantEpoch)
			}
		})
	}
}

// TestPromotePersistsAndFences: promotion bumps the epoch durably and the
// node thereafter rejects every frame — even from a "future" epoch, because
// a promoted node is nobody's follower.
func TestPromotePersistsAndFences(t *testing.T) {
	fsys := faultfs.NewMem()
	fol, err := NewFollower(fsys, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fol.handlePayload(0, payload(3, frameHello, nil)); err != nil {
		t.Fatal(err)
	}
	newEpoch, err := fol.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if newEpoch != 4 {
		t.Fatalf("promoted to epoch %d, want 4", newEpoch)
	}
	reloaded, err := NewFollower(fsys, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	if got := reloaded.Epoch(); got != 4 {
		t.Fatalf("epoch %d after reload, want 4 (promotion not persisted)", got)
	}
	for _, e := range []uint64{3, 4, 99} {
		resp, err := fol.handlePayload(0, payload(e, frameHello, nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, kind, _, _ := splitPayload(resp); kind != frameReject {
			t.Fatalf("promoted node accepted a hello at epoch %d", e)
		}
	}
}

// TestSplitBrainFencingAudited is the live split-brain scenario: the old
// primary keeps running after its follower is promoted. Its writes must
// fail (never silently fork history), its reconnect must be fenced, and the
// rejection must be query-able from the promoted vault's audit chain by a
// compliance officer.
func TestSplitBrainFencingAudited(t *testing.T) {
	pmem, fmem, fol, _, cap := pair(t)
	v := openVault(t, cap, 1)
	if _, err := v.PutCtx(context.Background(), "dr-house", testRecord("acked", 1)); err != nil {
		t.Fatal(err)
	}

	if _, err := fol.Promote(); err != nil {
		t.Fatal(err)
	}

	// The stale primary is still up and takes a write: the ship is fenced,
	// which must fail the client op rather than fork history locally.
	if _, err := v.PutCtx(context.Background(), "dr-house", testRecord("forked", 1)); err == nil {
		t.Fatal("stale primary committed a write after its follower was promoted")
	}

	pv := openVault(t, fmem, 1)
	defer pv.Close()
	fol.SetFenceAuditor(func(detail string) {
		if err := pv.AuditReplicationFence(detail); err != nil {
			t.Errorf("auditing fence rejection: %v", err)
		}
	})

	// The stale primary tries to reconnect with its old epoch.
	if err := hello(t, fol, pmem, cap.Epoch()); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale reconnect not fenced: %v", err)
	}

	if _, _, err := pv.GetCtx(context.Background(), "dr-house", "acked"); err != nil {
		t.Fatalf("acked record missing from promoted vault: %v", err)
	}
	if _, _, err := pv.GetCtx(context.Background(), "dr-house", "forked"); err == nil {
		t.Fatal("fenced write leaked into the promoted vault")
	}
	if _, err := pv.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll on promoted vault: %v", err)
	}

	evs, err := pv.AuditEventsCtx(context.Background(), "officer-kim", audit.Query{DeniedOnly: true})
	if err != nil {
		t.Fatalf("audit query: %v", err)
	}
	found := false
	for _, ev := range evs {
		if ev.Actor == "replication" && ev.Action == audit.ActionPolicy &&
			strings.Contains(ev.Detail, "replication frame rejected") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fence rejection not in the audit chain (got %d denied events)", len(evs))
	}
}
