package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"medvault/internal/blockstore"
	"medvault/internal/frame"
	"medvault/internal/vcrypto"
)

func newTestLog(t *testing.T, store blockstore.Store) (*Log, *vcrypto.Signer, vcrypto.Key) {
	t.Helper()
	signer, err := vcrypto.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	key, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	if store == nil {
		store = blockstore.NewMemory(0)
	}
	l, err := Open(Config{Store: store, MACKey: key, Signer: signer, Now: ticker(time.Now(), time.Microsecond)})
	if err != nil {
		t.Fatal(err)
	}
	return l, signer, key
}

// ticker is a clock that reads start plus step more at each call: a log
// that audits an event every step. newTestLog's steps 1 µs, so every v8 time
// delta up to 8 steps is 2 bytes long, and an event rewritten in place, or
// written after a crash in another's place, is as long as the original.
func ticker(start time.Time, step time.Duration) func() time.Time {
	var n atomic.Int64
	return func() time.Time { return start.Add(time.Duration(n.Add(1)) * step) }
}

func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := l.Append(Event{
			Actor:   fmt.Sprintf("dr-%d", i%3),
			Action:  ActionRead,
			Record:  fmt.Sprintf("patient-%d", i%5),
			Version: uint64(i%2 + 1),
			Outcome: OutcomeAllowed,
			Detail:  "routine",
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// allEvents is the whole log in chain order, as the medium holds it.
func allEvents(t *testing.T, l *Log) []Event {
	t.Helper()
	events, err := l.Search(Query{})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// symbolsOf is symbol tables holding tables' values, numbered in order.
func symbolsOf(tables [numSyms][]string) *symbols {
	syms := newSymbols()
	for f, table := range tables {
		for _, s := range table {
			syms[f].Intern(s)
		}
	}
	return syms
}

// noKey is the MAC check of a reader that holds no audit key: it takes every
// MAC as it stands.
func noKey(byte, []byte, []byte) bool { return true }

// storedEvents decodes every frame on the medium in chain order, with the
// ref of each.
func storedEvents(t *testing.T, store blockstore.Store) ([]blockstore.Ref, []Event) {
	t.Helper()
	return mediumEvents(t, store, nil)
}

// fromPostingList is e as Search answers it from a posting list: without its
// chain hashes.
func fromPostingList(e Event) Event {
	e.PrevHash, e.Hash = [32]byte{}, [32]byte{}
	return e
}

// numbersAt is what encodeEvent needs to write e after prefix: the symbol
// tables are a function of the events before it.
func numbersAt(prefix []Event, e Event) [numSyms]int {
	nums := [numSyms]map[string]int{{}, {}, {}}
	for _, prior := range prefix {
		for f, s := range symbolValues(prior) {
			if _, known := nums[f][s]; !known && s != "" {
				nums[f][s] = len(nums[f])
			}
		}
	}
	var at [numSyms]int
	for f, s := range symbolValues(e) {
		n, known := nums[f][s]
		if !known {
			n = -1
		}
		at[f] = n
	}
	return at
}

// encodeAt encodes e in the current layout as the i-th event of a log whose first
// i events are events[:i].
func encodeAt(events []Event, i int, e Event) []byte {
	return encodeEvent(e, numbersAt(events[:i], e), prevTime(events, i))
}

// prevTime is what the i-th event of events counts its v8 time from: the
// time of the event before it, 0 for the first.
func prevTime(events []Event, i int) int64 {
	if i == 0 {
		return 0
	}
	return events[i-1].Timestamp.UnixNano()
}

// rewriteStored plays the format-aware insider with disk access: it replaces
// the stored event at ref with b (same length) under a valid frame CRC.
func rewriteStored(t *testing.T, store *blockstore.File, ref blockstore.Ref, b []byte) {
	t.Helper()
	if err := store.CorruptFrame(ref, func([]byte) []byte { return b }); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBuildsChain(t *testing.T) {
	l, _, _ := newTestLog(t, nil)
	appendN(t, l, 10)
	if l.Len() != 10 {
		t.Fatalf("Len = %d, want 10", l.Len())
	}
	n, err := l.Verify(nil)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if n != 10 {
		t.Errorf("verified %d events, want 10", n)
	}
	events := allEvents(t, l)
	for i := 1; i < len(events); i++ {
		if events[i].PrevHash != events[i-1].Hash {
			t.Fatalf("chain link broken at %d", i)
		}
	}
}

func TestVerifyDetectsContentTampering(t *testing.T) {
	store := blockstore.NewMemory(0)
	l, _, _ := newTestLog(t, store)
	appendN(t, l, 20)
	// An insider edits one stored event in place, under the running log.
	// Event 7 names dr-1 by reference; the forgery names dr-2 the same way.
	refs, events := storedEvents(t, store)
	forged := events[7]
	forged.Actor = "dr-2"
	rewriteStored(t, store, refs[7], encodeAt(events, 7, forged))
	if n, err := l.Verify(nil); !errors.Is(err, ErrChainBroken) || n != 7 {
		t.Errorf("content tamper: verified %d, %v; want 7, ErrChainBroken", n, err)
	}
	// A query whose answer includes the forged event fails whole, and so does
	// one whose stream from the anchor before its answer passes it.
	for name, rec := range map[string]string{"over": forged.Record, "past": events[8].Record} {
		if got, err := l.Search(Query{Record: rec}); !errors.Is(err, ErrChainBroken) || got != nil {
			t.Errorf("query %s the forged event: %d events, %v; want none, ErrChainBroken", name, len(got), err)
		}
	}
}

// TestMovedEventFailsItsQuery: a genuine event copied over another under a
// running log fails its MAC at its new place, which the MAC binds, so a
// query over it fails; Verify fails at it too, on the link, which names
// another predecessor.
func TestMovedEventFailsItsQuery(t *testing.T) {
	store := blockstore.NewMemory(0)
	l, _, _ := newTestLog(t, store)
	appendN(t, l, 12)
	refs, events := storedEvents(t, store)
	// Events 8 and 9 refer to every symbol value, so their frames have the
	// same length.
	nine, err := store.Read(refs[9])
	if err != nil {
		t.Fatal(err)
	}
	rewriteStored(t, store, refs[8], nine)
	if got, err := l.Search(Query{Record: events[8].Record}); !errors.Is(err, ErrBadMAC) {
		t.Errorf("query over a moved event: %d events, %v; want ErrBadMAC", len(got), err)
	}
	if n, err := l.Verify(nil); !errors.Is(err, ErrChainBroken) || n != 8 {
		t.Errorf("moved event: verified %d, %v; want 8, ErrChainBroken", n, err)
	}
}

func TestVerifyDetectsRechainedForgeryWithoutKey(t *testing.T) {
	store := blockstore.NewMemory(0)
	l, _, _ := newTestLog(t, store)
	appendN(t, l, 10)
	// An insider who edits event 3 and recomputes hashes downstream still
	// lacks the MAC key: Verify must fail with ErrBadMAC at the first
	// re-forged event.
	refs, events := storedEvents(t, store)
	events[3].Actor = "dr-1" // shifts the blame to another known actor
	for i := 3; i < len(events); i++ {
		if i > 3 {
			events[i].PrevHash = events[i-1].Hash
		}
		events[i].Hash = eventHash(events[i])
		// MAC left stale: attacker cannot recompute it.
		rewriteStored(t, store, refs[i], encodeAt(events, i, events[i]))
	}
	if n, err := l.Verify(nil); !errors.Is(err, ErrBadMAC) || n != 3 {
		t.Errorf("re-chained forgery: verified %d, %v; want 3, ErrBadMAC", n, err)
	}
	// No event stores its predecessor's hash, so re-chaining rewrote none
	// of the events after the edited one; but a query's stream checks every
	// event it passes, so one over them fails at the edited event, as one
	// over the edited event does.
	for _, actor := range []string{events[3].Actor, "dr-0"} {
		if _, err := l.Search(Query{Actor: actor}); !errors.Is(err, ErrBadMAC) {
			t.Errorf("query by %s over the re-chained forgery: %v, want ErrBadMAC", actor, err)
		}
	}
}

func TestVerifyDetectsTruncation(t *testing.T) {
	dir := t.TempDir()
	store, err := blockstore.OpenFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, signer, key := newTestLog(t, store)
	appendN(t, l, 10)
	cp := l.Checkpoint()
	// Cut the medium back to five events under the running log, which still
	// remembers ten: the stream comes up short.
	refs, _ := storedEvents(t, store)
	if err := os.Truncate(filepath.Join(dir, blockstore.SegmentName(0)), int64(refs[5].Offset)); err != nil {
		t.Fatal(err)
	}
	if n, err := l.Verify(nil); !errors.Is(err, ErrChainBroken) || n != 5 {
		t.Errorf("truncated medium under a running log: verified %d, %v; want 5, ErrChainBroken", n, err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// A restart over the truncated medium sees a chain that verifies
	// internally; the remembered checkpoint exposes the missing events.
	store, err = blockstore.OpenFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	re, err := Open(Config{Store: store, MACKey: key, Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := re.Verify(nil); err != nil || n != 5 {
		t.Fatalf("truncated chain should self-verify: %d, %v", n, err)
	}
	if _, err := re.Verify(signer.Public(), cp); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("truncation vs checkpoint: %v, want ErrCheckpointMismatch", err)
	}
}

// TestCrashSpliceIsCaught: someone holding a copy of the medium from before a
// crash splices an event the crash lost back over the event that replaced it.
// The lost event is genuine and its place and predecessor are the same, so
// it passes its own MAC, read after its predecessor as a stream from an
// anchor reads it, as does every other event; but the event after it was chained to the
// replacement, so Open and Verify fail at that successor. On a v8 medium
// (its clock stepping evenly, so a replacement's time delta is as long as
// the lost event's) and a v7 one (appendV7) its tag, and on a v6 one
// (appendV6) its MAC, whose input ends in the link a reader takes from the
// spliced event's hash, fails (ErrBadMAC, wrapping ErrChainBroken); on a v5
// medium (appendV5) its stored link does (ErrChainBroken, and no MAC fails).
// Either way the bound is a guess of 8 link bytes, and the spliced event is
// not the tail: its successor is what catches the splice.
func TestCrashSpliceIsCaught(t *testing.T) {
	const k = 5
	for _, tc := range []struct {
		layout string
		write  func(t *testing.T, l *Log, e Event)
		atMAC  bool // the successor fails its MAC, not a stored link
	}{
		{"v8", func(t *testing.T, l *Log, e Event) {
			t.Helper()
			if _, err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"v7", func(t *testing.T, l *Log, e Event) { appendV7(t, l, e) }, true},
		{"v6", func(t *testing.T, l *Log, e Event) { appendV6(t, l, e) }, true},
		{"v5", func(t *testing.T, l *Log, e Event) { appendV5(t, l, e) }, false},
	} {
		t.Run(tc.layout, func(t *testing.T) {
			dir := t.TempDir()
			seg := filepath.Join(dir, blockstore.SegmentName(0))
			openStore := func() *blockstore.File {
				store, err := blockstore.OpenFile(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				return store
			}
			frames := func(store blockstore.Store) []blockstore.Ref {
				var refs []blockstore.Ref
				if err := store.Scan(func(ref blockstore.Ref, _ []byte) error {
					refs = append(refs, ref)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				return refs
			}
			// Every event after the first k refers to values those defined, so
			// a lost event and its replacement are frames of the same length.
			appendAs := func(l *Log, n int, action Action) {
				for i := 0; i < n; i++ {
					tc.write(t, l, Event{Actor: "dr-0", Action: action, Record: "patient-0", Version: 1, Outcome: OutcomeAllowed, Detail: "routine"})
				}
			}
			wrong := func(err error) bool {
				return !errors.Is(err, ErrChainBroken) || errors.Is(err, ErrBadMAC) != tc.atMAC
			}

			store := openStore()
			l, signer, key := newTestLog(t, store)
			for i := 0; i < k; i++ {
				tc.write(t, l, Event{
					Actor: fmt.Sprintf("dr-%d", i%3), Action: ActionRead, Record: fmt.Sprintf("patient-%d", i%5),
					Version: uint64(i%2 + 1), Outcome: OutcomeAllowed, Detail: "routine",
				})
			}
			appendAs(l, 4, ActionRead) // events k..k+3, which the crash loses
			copied, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			lost := frames(store)
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			from, to := lost[k].Offset, lost[k+1].Offset
			if err := os.Truncate(seg, int64(from)); err != nil {
				t.Fatal(err)
			}

			store = openStore()
			// The clock runs on, so a v8 replacement's time delta is as long
			// as the lost event's.
			if l, err = Open(Config{Store: store, MACKey: key, Signer: signer, Now: l.now}); err != nil {
				t.Fatal(err)
			}
			appendAs(l, 3, ActionCorrect) // different events k..k+2
			if now := frames(store); now[k].Offset != from || now[k+1].Offset != to {
				t.Fatalf("replacement frame spans [%d, %d), the lost one [%d, %d)", now[k].Offset, now[k+1].Offset, from, to)
			}
			_, replaced := storedEvents(t, store)
			f, err := os.OpenFile(seg, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(copied[from:to], int64(from)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			spliced, err := store.Read(lost[k])
			if err != nil {
				t.Fatal(err)
			}
			cr := chainReader{check: l.checkMAC, seq: k, prev: replaced[k-1].Hash, prevTime: prevTime(replaced, k), syms: l.syms, resolved: true}
			if e, err := cr.next(nil, spliced); err != nil || e.Action != ActionRead {
				t.Errorf("the spliced event read after its predecessor: %v, %v; want it to pass its own MAC", e, err)
			}
			if n, err := l.Verify(nil); wrong(err) || n != k+1 {
				t.Errorf("spliced medium under a running log: verified %d, %v; want %d, ErrChainBroken at the successor (ErrBadMAC: %v)", n, err, k+1, tc.atMAC)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			store = openStore()
			defer store.Close()
			if _, err := Open(Config{Store: store, MACKey: key, Signer: signer}); wrong(err) {
				t.Errorf("Open over a spliced medium = %v, want ErrChainBroken at the successor (ErrBadMAC: %v)", err, tc.atMAC)
			}
		})
	}
}

func TestVerifyAgainstHonestLog(t *testing.T) {
	l, signer, _ := newTestLog(t, nil)
	appendN(t, l, 8)
	cp := l.Checkpoint()
	appendN(t, l, 7) // keep growing after the checkpoint
	if _, err := l.Verify(signer.Public(), cp); err != nil {
		t.Errorf("honest log failed checkpoint verification: %v", err)
	}
	// Zero checkpoint is always satisfied by a verifying log.
	l2, s2, _ := newTestLog(t, nil)
	if _, err := l2.Verify(s2.Public(), l2.Checkpoint()); err != nil {
		t.Errorf("empty checkpoint: %v", err)
	}
}

// TestVerifyChecksEveryCheckpointInOneStream: Verify proves every checkpoint
// it is handed from one stream of the chain, and each on its own, so a
// checkpoint the log does not commit to fails the call even beside an
// honest one at the same seq (a fork the key signed), or when it covers
// events the log does not hold.
func TestVerifyChecksEveryCheckpointInOneStream(t *testing.T) {
	l, signer, _ := newTestLog(t, nil)
	var cps []Checkpoint
	for i := 0; i < 3; i++ {
		appendN(t, l, 4)
		cps = append(cps, l.Checkpoint())
	}
	if n, err := l.Verify(signer.Public(), cps...); err != nil || n != 12 {
		t.Fatalf("three honest checkpoints: %d, %v", n, err)
	}
	sign := func(seq uint64, head [32]byte) Checkpoint {
		ts := time.Unix(0, 1).UTC()
		return Checkpoint{Seq: seq, Head: head, Timestamp: ts, Signature: signer.Sign(checkpointBytes(seq, head, ts))}
	}
	fork := cps[1].Head
	fork[0] ^= 1
	for name, cp := range map[string]Checkpoint{"fork": sign(8, fork), "beyond": sign(13, cps[2].Head)} {
		if _, err := l.Verify(signer.Public(), append(cps, cp)...); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s beside three honest checkpoints: %v, want ErrCheckpointMismatch", name, err)
		}
	}
}

func TestVerifyAgainstWholesaleReplacement(t *testing.T) {
	l, signer, key := newTestLog(t, nil)
	appendN(t, l, 10)
	cp := l.Checkpoint()

	// Attacker rebuilds a whole fresh log (even with the MAC key — say a
	// compromised process) but cannot sign checkpoints. The remembered
	// checkpoint exposes the replacement.
	store2 := blockstore.NewMemory(0)
	evilSigner, _ := vcrypto.NewSigner()
	evil, err := Open(Config{Store: store2, MACKey: key, Signer: evilSigner})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := evil.Append(Event{Actor: "ghost", Action: ActionRead, Outcome: OutcomeAllowed}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := evil.Verify(signer.Public(), cp); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("replaced log: %v, want ErrCheckpointMismatch", err)
	}
	// And a checkpoint forged by the evil signer fails signature check.
	forged := evil.Checkpoint()
	if _, err := evil.Verify(signer.Public(), forged); !errors.Is(err, vcrypto.ErrBadSignature) {
		t.Errorf("forged checkpoint: %v, want ErrBadSignature", err)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	store := blockstore.NewMemory(0)
	l, signer, key := newTestLog(t, store)
	appendN(t, l, 25)
	want := allEvents(t, l)

	re, err := Open(Config{Store: store, MACKey: key, Signer: signer})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if re.Len() != 25 {
		t.Fatalf("reopened Len = %d, want 25", re.Len())
	}
	got := allEvents(t, re)
	for i := range want {
		if got[i].Hash != want[i].Hash || got[i].Actor != want[i].Actor {
			t.Fatalf("event %d differs after reopen", i)
		}
	}
	if _, err := re.Verify(nil); err != nil {
		t.Errorf("reopened log fails verify: %v", err)
	}
	// Appends continue the chain.
	if _, err := re.Append(Event{Actor: "x", Action: ActionRead, Outcome: OutcomeAllowed}); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Verify(nil); err != nil {
		t.Errorf("verify after continued append: %v", err)
	}
}

// failingStore fails Append while fail is set, as a full or broken medium
// does; blockstore.File takes such a write back, so the next one succeeds.
type failingStore struct {
	blockstore.Store
	fail bool
}

func (f *failingStore) Append(data []byte) (blockstore.Ref, error) {
	if f.fail {
		return blockstore.Ref{}, errors.New("injected append failure")
	}
	return f.Store.Append(data)
}

// TestFailedAppendWedgesTheLog: an append that fails leaves the log wedged
// until reopen, so no later event lands after the one it lost and the
// medium's chain is always a prefix of what callers appended.
func TestFailedAppendWedgesTheLog(t *testing.T) {
	store := &failingStore{Store: blockstore.NewMemory(0)}
	l, signer, key := newTestLog(t, store)
	appendN(t, l, 4)
	want := allEvents(t, l)

	store.fail = true
	if _, err := l.Append(Event{Actor: "lost", Action: ActionRead, Outcome: OutcomeAllowed}); err == nil || errors.Is(err, ErrWedged) {
		t.Fatalf("failing append = %v, want the store's error", err)
	}
	store.fail = false
	if _, err := l.Append(Event{Actor: "later", Action: ActionRead, Outcome: OutcomeAllowed}); !errors.Is(err, ErrWedged) {
		t.Errorf("Append after a failed append = %v, want ErrWedged", err)
	}
	if _, err := l.AppendAll([]Event{{Actor: "later", Action: ActionRead, Outcome: OutcomeAllowed}}); !errors.Is(err, ErrWedged) {
		t.Errorf("AppendAll after a failed append = %v, want ErrWedged", err)
	}
	if !l.Wedged() || l.Len() != len(want) {
		t.Errorf("Wedged() = %t, Len() = %d; want true, %d", l.Wedged(), l.Len(), len(want))
	}
	if _, stored := storedEvents(t, store); len(stored) != len(want) {
		t.Errorf("store holds %d events, want the %d before the failure", len(stored), len(want))
	}

	re, err := Open(Config{Store: store, MACKey: key, Signer: signer})
	if err != nil {
		t.Fatalf("reopen over the healed store: %v", err)
	}
	if n, err := re.Verify(nil); err != nil || n != len(want) {
		t.Fatalf("reopened log verifies %d events (%v), want %d", n, err, len(want))
	}
	for i, e := range allEvents(t, re) {
		if e.Hash != want[i].Hash {
			t.Errorf("event %d after reopen differs from the one appended", i)
		}
	}
	if _, err := re.Append(Event{Actor: "x", Action: ActionRead, Outcome: OutcomeAllowed}); err != nil || re.Wedged() {
		t.Errorf("Append after reopen = %v (wedged %t), want success", err, re.Wedged())
	}
}

func TestOpenRejectsTamperedPersistence(t *testing.T) {
	store := blockstore.NewMemory(0)
	l, signer, key := newTestLog(t, store)
	appendN(t, l, 5)

	// Corrupt the persisted bytes of one event via raw segment access, with
	// a valid CRC re-wrap being impossible — so instead rebuild a store with
	// one event's payload altered but CRC fixed (insider with disk access).
	var payloads [][]byte
	if err := store.Scan(func(_ blockstore.Ref, data []byte) error {
		payloads = append(payloads, append([]byte(nil), data...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_, events := storedEvents(t, store)
	e := events[2]
	e.Actor = "tampered"
	payloads[2] = encodeAt(events, 2, e)

	evil := blockstore.NewMemory(0)
	for _, p := range payloads {
		if _, err := evil.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(Config{Store: evil, MACKey: key, Signer: signer}); !errors.Is(err, ErrChainBroken) {
		t.Errorf("tampered persistence accepted: %v", err)
	}
}

func TestSearchFilters(t *testing.T) {
	l, _, _ := newTestLog(t, nil)
	base := time.Now()
	appendN(t, l, 30)
	if _, err := l.Append(Event{Actor: "intruder", Action: ActionRead, Record: "patient-1", Outcome: OutcomeDenied}); err != nil {
		t.Fatal(err)
	}

	search := func(q Query) []Event {
		t.Helper()
		got, err := l.Search(q)
		if err != nil {
			t.Fatalf("Search(%+v): %v", q, err)
		}
		return got
	}
	if got := search(Query{Actor: "dr-1"}); len(got) != 10 {
		t.Errorf("actor filter: %d events, want 10", len(got))
	}
	if got := search(Query{Record: "patient-1"}); len(got) != 7 {
		t.Errorf("record filter: %d events, want 7", len(got))
	}
	if got := search(Query{DeniedOnly: true}); len(got) != 1 || got[0].Actor != "intruder" {
		t.Errorf("denied filter: %v", got)
	}
	if got := search(Query{Action: ActionCorrect}); len(got) != 0 {
		t.Errorf("action filter: %d events, want 0", len(got))
	}
	if got := search(Query{Until: base.Add(-time.Hour)}); len(got) != 0 {
		t.Errorf("until filter: %d events, want 0", len(got))
	}
	if got := search(Query{From: base.Add(-time.Hour)}); len(got) != 31 {
		t.Errorf("from filter: %d events, want 31", len(got))
	}
}

// randomLog appends n seeded batches shaped like a vault's: several records
// and actors, all three outcomes, store-level events naming no record, and
// break-glass pairs appended atomically. The clock steps a second per event.
// With a tail (m non-nil), about one batch in 8 is a folded create, and
// about one in 40 is followed by a Flush, after which the owner cuts m. An
// event just before, at or just after a multiple of anchorEvery names record
// edge-31, edge-0 or edge-1, and the last event before each Flush and the
// first after it name seam, so queries' hits fall on, beside and across
// anchors and the store/tail seam.
func randomLog(t *testing.T, rng *rand.Rand, l *Log, m *memTail, now func() time.Time, n int) {
	t.Helper()
	actions := []Action{ActionCreate, ActionRead, ActionCorrect, ActionSearch, ActionVerify, ActionPolicy}
	outcomes := []Outcome{OutcomeAllowed, OutcomeAllowed, OutcomeAllowed, OutcomeDenied, OutcomeError}
	seam := false
	for i := 0; i < n; i++ {
		e := Event{
			Actor:   fmt.Sprintf("actor-%d", rng.Intn(6)),
			Action:  actions[rng.Intn(len(actions))],
			Record:  fmt.Sprintf("rec-%d", rng.Intn(12)),
			Version: uint64(rng.Intn(3)),
			Outcome: outcomes[rng.Intn(len(outcomes))],
			Detail:  "d",
		}
		batch := []Event{e}
		fold := false
		switch rng.Intn(8) {
		case 0: // store-level event
			batch[0].Record = ""
		case 1: // elevated access and its flag
			batch[0].Outcome = OutcomeAllowed
			flag := batch[0]
			flag.Action = ActionBreakGlass
			batch = append(batch, flag)
		case 2: // a create folded into its host entry
			fold = m != nil
		}
		flush := m != nil && rng.Intn(40) == 0
		for j := range batch {
			if edge := (l.Len() + j) % anchorEvery; edge <= 1 || edge == anchorEvery-1 {
				batch[j].Record = fmt.Sprintf("edge-%d", edge)
			}
		}
		if seam {
			batch[0].Record, seam = "seam", false
		}
		if flush {
			batch[len(batch)-1].Record = "seam"
		}
		if fold {
			e := batch[0]
			e.Action, e.Outcome, e.Timestamp = ActionCreate, OutcomeAllowed, now()
			m.fold(t, l, e)
		} else if _, err := l.AppendAll(batch); err != nil {
			t.Fatal(err)
		}
		if flush {
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			m.cut()
			seam = true
		}
	}
}

func randomQuery(rng *rand.Rand, base time.Time, n int) Query {
	var q Query
	if rng.Intn(3) == 0 {
		q.Actor = fmt.Sprintf("actor-%d", rng.Intn(7)) // actor-6 never appears
	}
	if rng.Intn(3) == 0 {
		q.Record = fmt.Sprintf("rec-%d", rng.Intn(13)) // rec-12 never appears
	}
	if rng.Intn(4) == 0 {
		q.Action = []Action{ActionRead, ActionBreakGlass, ActionVerify, ActionDelete}[rng.Intn(4)]
	}
	if rng.Intn(4) == 0 {
		q.From = base.Add(time.Duration(rng.Intn(n)) * time.Second)
	}
	if rng.Intn(4) == 0 {
		q.Until = base.Add(time.Duration(rng.Intn(n)) * time.Second)
	}
	q.DeniedOnly = rng.Intn(4) == 0
	return q
}

// mediumEvents decodes every event on the medium in chain order — the
// store's, then those of tail m unless it is nil — with the ref of each (a
// tail event's holds its entry's offset in pendingSegment).
func mediumEvents(t *testing.T, store blockstore.Store, m *memTail) ([]blockstore.Ref, []Event) {
	t.Helper()
	var refs []blockstore.Ref
	var events []Event
	cr := newChainReader(noKey, newSymbols())
	add := func(ref blockstore.Ref, host *Event, data []byte) error {
		e, err := cr.next(host, data)
		if err == nil {
			refs, events = append(refs, ref), append(events, e.owned())
		}
		return err
	}
	err := store.Scan(func(ref blockstore.Ref, data []byte) error { return add(ref, nil, data) })
	for i := 0; err == nil && m != nil && i < len(m.entries); i++ {
		err = add(blockstore.Ref{Segment: pendingSegment, Offset: uint64(m.base) + uint64(i)}, m.entries[i].host, m.entries[i].data)
	}
	if err != nil {
		t.Fatal(err)
	}
	return refs, events
}

// TestSearchEqualsScanProperty pins the posting index to the medium: for
// seeded random logs and random queries over all six fields, Search answers
// exactly what a brute-force filter over the medium answers, in chain order,
// on the log that built its index by appending and on one that built it in
// Open and Resume — each event as Search answers it: without its chain
// hashes when read from a posting list (fromPostingList). Each seed builds a
// log in store mode and one with a tail of standalone and folded events,
// flushed at random points, over segments small enough to rotate; queries
// over records placed on, just before and just after anchors, and across
// each Flush's seam, reach their hits through anchors of both kinds. A tag
// byte flipped in an event that is no hit, between a hit and the anchor
// before it, fails the query, which streams through it.
func TestSearchEqualsScanProperty(t *testing.T) {
	base := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	for seed := int64(1); seed <= 5; seed++ {
		for _, tail := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			store := blockstore.NewMemory(4 << 10) // several segments
			signer, _ := vcrypto.NewSigner()
			key, _ := vcrypto.NewKey()
			tick := 0
			now := func() time.Time {
				tick++
				return base.Add(time.Duration(tick) * time.Second)
			}
			cfg := Config{Store: store, MACKey: key, Signer: signer, Now: now}
			l, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var m *memTail
			if tail {
				m = &memTail{base: 1 << 33}
				l.Attach(m.tail())
			}
			n := 150 + rng.Intn(150)
			randomLog(t, rng, l, m, now, n)
			re, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tail {
				re.Attach(m.tail())
				if err := m.resume(re); err != nil {
					t.Fatal(err)
				}
			}
			refs, medium := mediumEvents(t, store, m)
			rotated := false
			for _, a := range l.places.anchors {
				rotated = rotated || a.seq%anchorEvery != 0 && a.ref.Segment != pendingSegment
			}
			if !rotated || tail && l.places.stored == 0 {
				t.Fatalf("seed %d (tail %t): no segment rotation, or nothing flushed", seed, tail)
			}
			queries := []Query{{}, {DeniedOnly: true}, {Actor: "actor-0", Record: "rec-0", DeniedOnly: true}}
			for _, rec := range []string{"edge-31", "edge-0", "edge-1", "seam"} {
				queries = append(queries, Query{Record: rec})
			}
			for i := 0; i < 200; i++ {
				queries = append(queries, randomQuery(rng, base, 2*n))
			}
			for _, q := range queries {
				indexed := q.Record != "" || q.Actor != "" || q.DeniedOnly
				var want []Event
				for _, e := range medium {
					if q.matches(&e) {
						if indexed {
							e = fromPostingList(e)
						}
						want = append(want, e)
					}
				}
				for name, log := range map[string]*Log{"live": l, "reopened": re} {
					got, err := log.Search(q)
					if err != nil {
						t.Fatalf("seed %d (tail %t) %s Search(%+v): %v", seed, tail, name, q, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d (tail %t) %s Search(%+v): %d events, brute force over the medium finds %d", seed, tail, name, q, len(got), len(want))
					}
				}
			}
			checkTamperedNeighbour(t, rng, l, store, m, refs, medium)
		}
	}
}

// checkTamperedNeighbour flips the last tag byte of an event that is no hit
// of its record's query but lies between one of its hits and the anchor
// before that hit, and requires the query, whose stream passes it, to fail;
// then it flips the byte back and requires the query to pass.
func checkTamperedNeighbour(t *testing.T, rng *rand.Rand, l *Log, store *blockstore.File, m *memTail, refs []blockstore.Ref, medium []Event) {
	t.Helper()
	pl := l.places
	for _, h := range rng.Perm(len(medium)) {
		rec, from := medium[h].Record, int(pl.anchors[pl.at(uint64(h))].seq)
		if rec == "" || h == from {
			continue
		}
		j := from + rng.Intn(h-from)
		if medium[j].Record == rec {
			continue
		}
		flip := func() {
			t.Helper()
			if ref := refs[j]; ref.Segment == pendingSegment {
				data := m.entries[ref.Offset-uint64(m.base)].data
				data[len(data)-1] ^= 0x01
			} else if err := store.CorruptFrame(ref, func(b []byte) []byte {
				b[len(b)-1] ^= 0x01
				return b
			}); err != nil {
				t.Fatal(err)
			}
		}
		flip()
		if _, err := l.Search(Query{Record: rec}); !errors.Is(err, ErrChainBroken) {
			t.Errorf("query over %s, whose stream from event %d to its hit %d passes event %d with a flipped tag: %v, want ErrChainBroken", rec, from, h, j, err)
		}
		flip()
		if _, err := l.Search(Query{Record: rec}); err != nil {
			t.Errorf("query over %s after the tag is restored: %v", rec, err)
		}
		return
	}
	t.Fatal("no event lies between a hit and its anchor")
}

// TestResidentBytesPerEvent is the budget the log's RAM must stay inside:
// posting-list places per event and an anchor per anchorEvery events, never
// the event — in store mode, and with a tail holding standalone events and
// one folded event in 8, as a shard's meta.wal does between checkpoints (the
// tail's entries are the medium, so they are dropped before the reading).
// With a 16-B blockstore.Ref per event and no link it measured 46.8 B/event
// in store mode; the 12-B slot with the link resident, 43.0; posting lists
// of uvarint gaps where they held uint64 seqs, 22.6, and 31.4 in tail mode,
// which kept a tail event's full-width offset too. Anchors in place of the
// slots and offsets measure 9.4 in both modes, 9.7 once an anchor holds its
// predecessor's time, and the budget is 9.4 plus some 15 %.
func TestResidentBytesPerEvent(t *testing.T) {
	const events, budget = 100_000, 11
	for _, tail := range []bool{false, true} {
		t.Run(map[bool]string{false: "store", true: "tail"}[tail], func(t *testing.T) {
			store, err := blockstore.OpenFile(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			before := heapInUse()
			l, _, _ := newTestLog(t, store)
			m := &memTail{}
			if tail {
				l.Attach(m.tail())
			}
			at := time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC)
			for i := 0; i < events; i++ {
				e := Event{
					Actor:   fmt.Sprintf("dr-%d", i%16),
					Action:  ActionRead,
					Record:  fmt.Sprintf("w0-mrn-%06d-enc-0", i%3000),
					Outcome: OutcomeAllowed,
					Detail:  "role physician permits read on clinical",
					Trace:   "0123456789abcdef",
				}
				if tail && i%8 == 7 {
					e.Action, e.Version, e.Timestamp = ActionCreate, 1, at.Add(time.Duration(i)*time.Millisecond)
					m.fold(t, l, e)
				} else if _, err := l.Append(e); err != nil {
					t.Fatal(err)
				}
			}
			m.entries = nil
			grown := heapInUse() - before
			runtime.KeepAlive(l)
			per := float64(grown) / events
			t.Logf("resident: %.1f B/event over %d events", per, events)
			if per > budget {
				t.Errorf("log keeps %.1f B/event resident, budget is %d", per, budget)
			}
		})
	}
}

// TestSearchAllocsPerQuery budgets what a posting-list query allocates: by
// record, 32 hits each, over 25,000 stored events across 800 records, each
// event with a minted trace ID as the server writes. Records patient-0 to
// patient-31 put their hits at every place in an anchor's stretch, so their
// mean is that of a query whose hits fall anywhere. A stream decodes each
// event it passes in place, its MAC aliasing the stretch, and copies only
// the hits it answers: the trace ID is the one allocation a passed event
// costs. The binary that decoded every event into a fresh copy, MAC and
// MAC input included, allocated 2,901 per query; the budget is a third.
func TestSearchAllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, and its sync.Pool keeps nothing")
	}
	const events, records, queries, hits, budget = 25_000, 800, 32, 32, 2901 / 3
	l, _, _ := newTestLog(t, nil)
	for i := 0; i < events; i++ {
		if _, err := l.Append(Event{
			Actor: fmt.Sprintf("dr-%d", i%3), Action: ActionRead, Record: fmt.Sprintf("patient-%d", i%records),
			Version: uint64(i%2 + 1), Outcome: OutcomeAllowed, Detail: "routine", Trace: fmt.Sprintf("%016x", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		for r := 0; r < queries; r++ {
			got, err := l.Search(Query{Record: fmt.Sprintf("patient-%d", r)})
			if err != nil || len(got) != hits {
				t.Fatalf("patient-%d: %d events, %v; want %d", r, len(got), err, hits)
			}
		}
	}) / queries
	t.Logf("%.0f allocations per query (2,901 decoding every event into a copy)", allocs)
	if allocs > budget {
		t.Errorf("a query allocates %.0f times, budget is %d", allocs, budget)
	}
}

// TestPostingGapsRoundTrip: a posting list gives back the seqs added to it,
// seq 0 and gaps past a uvarint's first byte included, at every length from
// none; a list of one seq allocates no gaps.
func TestPostingGapsRoundTrip(t *testing.T) {
	want := []uint64{0, 1, 2, 130, 131, 20_000, 1 << 40}
	var p posting
	for n := 0; n <= len(want); n++ {
		var got []uint64
		p.each(func(seq uint64) error { got = append(got, seq); return nil })
		if n > 0 && !reflect.DeepEqual(got, want[:n]) || n == 0 && got != nil {
			t.Fatalf("list of %d gives %v, want %v", n, got, want[:n])
		}
		if n < len(want) {
			p.add(want[n])
		}
		if n == 0 && p.gaps != nil {
			t.Errorf("a list of one seq holds %d B of gaps", len(p.gaps))
		}
	}
	if len(p.gaps) != 1+1+1+2+1+3+6 {
		t.Errorf("%d gaps take %d B", len(want), len(p.gaps))
	}
}

// TestConcurrentAppendSearchVerify is for the race detector: queries read
// posting-list snapshots outside the log lock while appends extend them.
func TestConcurrentAppendSearchVerify(t *testing.T) {
	l, _, _ := newTestLog(t, blockstore.NewMemory(8<<10))
	const writers, batches = 2, 150
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				e := Event{Actor: fmt.Sprintf("dr-%d", w), Action: ActionRead, Record: fmt.Sprintf("rec-%d", i%4), Outcome: OutcomeAllowed}
				flag := e
				flag.Action = ActionBreakGlass
				if _, err := l.AppendAll([]Event{e, flag}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for _, q := range []Query{{Record: "rec-1"}, {Actor: "dr-0"}, {}} {
		readers.Add(1)
		go func(q Query) {
			defer readers.Done()
			for {
				got, err := l.Search(q)
				if err != nil {
					t.Errorf("Search(%+v): %v", q, err)
					return
				}
				for i := 1; i < len(got); i++ {
					if got[i].Seq <= got[i-1].Seq {
						t.Errorf("Search(%+v): seq %d after %d", q, got[i].Seq, got[i-1].Seq)
						return
					}
				}
				if _, err := l.Verify(nil); err != nil {
					t.Errorf("Verify: %v", err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(q)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if n, err := l.Verify(nil); err != nil || n != 2*writers*batches {
		t.Errorf("final Verify: %d, %v; want %d, nil", n, err, 2*writers*batches)
	}
}

func TestAutomaticCheckpoints(t *testing.T) {
	store := blockstore.NewMemory(0)
	signer, _ := vcrypto.NewSigner()
	key, _ := vcrypto.NewKey()
	l, err := Open(Config{Store: store, MACKey: key, Signer: signer, CheckpointInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17; i++ {
		if _, err := l.Append(Event{Actor: "a", Action: ActionRead, Outcome: OutcomeAllowed}); err != nil {
			t.Fatal(err)
		}
	}
	cps := l.Checkpoints()
	if len(cps) != 3 {
		t.Fatalf("got %d automatic checkpoints, want 3", len(cps))
	}
	for _, cp := range cps {
		if _, err := l.Verify(signer.Public(), cp); err != nil {
			t.Errorf("checkpoint at seq %d: %v", cp.Seq, err)
		}
	}
}

// TestEventCodecRoundTripProperty: every stored field comes back as written,
// and what the layout leaves out comes back as the reader computes it — Seq
// from the event's place; PrevHash and Hash from the predecessor a
// sequential reader holds. chainSums builds the MAC input macInput does.
func TestEventCodecRoundTripProperty(t *testing.T) {
	f := func(seq uint64, actor, record, detail, trace string, version uint64, prev [32]byte, prevNano int64, mac [vcrypto.TagSize]byte) bool {
		prevNano %= 1 << 62 // a predecessor within 146 years of the epoch, as a writer's are
		e := Event{
			Timestamp: time.Unix(0, 1234567890).UTC(),
			Actor:     actor,
			Action:    ActionCorrect,
			Record:    record,
			Version:   version,
			Outcome:   OutcomeAllowed,
			Detail:    detail,
			Trace:     trace,
			PrevHash:  prev,
			MAC:       mac[:],
		}
		b := encodeEvent(e, [numSyms]int{-1, -1, -1}, prevNano)
		cr := newChainReader(noKey, newSymbols())
		cr.seq, cr.prev, cr.prevTime = seq, prev, prevNano
		got, err := cr.next(nil, b)
		if err != nil {
			return false
		}
		e.Seq = seq
		_, input := chainSums(nil, &e, codecVersion)
		return got.Seq == seq && got.Actor == e.Actor && got.Record == e.Record &&
			got.Detail == e.Detail && got.Trace == e.Trace && got.Version == e.Version &&
			got.PrevHash == e.PrevHash && got.Hash == eventHash(e) && string(got.MAC) == string(e.MAC) &&
			got.Timestamp.Equal(e.Timestamp) &&
			bytes.Equal(input, macInput(e, codecVersion))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeEventRejectsGarbage: what no writer writes is ErrCorrupt — a
// truncated or unknown layout, trailing bytes, and in v8 a time delta whose
// sum with its predecessor's time overflows int64, a delta or a shape not in
// its shortest varint, an action beyond its vocabulary (the outcome's two
// bits hold no such value), and a minted trace ID written as a token.
func TestDecodeEventRejectsGarbage(t *testing.T) {
	tag := make([]byte, vcrypto.TagSize)
	v8 := func(prev int64, e Event) []byte {
		e.MAC = tag
		return encodeEvent(e, [numSyms]int{-1, -1, -1}, prev)
	}
	read := Event{Timestamp: time.Unix(0, 1).UTC(), Action: ActionRead, Outcome: OutcomeAllowed}
	late := read
	late.Timestamp = time.Unix(0, math.MaxInt64).UTC()
	// p with its byte at the shape's place (after a 1-byte delta) set to b.
	shaped := func(p []byte, b ...byte) []byte {
		return append(append(p[:2:2], b...), p[3:]...)
	}
	ok := v8(0, read)             // 08 02 12 00 00 00 00 00 tag
	cut := len(ok) - len(tag) - 1 // its empty trace's token
	for _, tc := range []struct {
		name string
		prev int64
		b    []byte
	}{
		{"empty", 0, nil},
		{"a legacy u16 version's high byte alone", 0, []byte{0}},
		{"a v2 version alone", 0, []byte{0, 2}},
		{"a v5 layout byte alone", 0, []byte{5}},
		{"a v6 layout byte alone", 0, []byte{6}},
		{"a v7 layout byte alone", 0, []byte{7}},
		{"a v8 layout byte alone", 0, []byte{8}},
		{"an unknown layout", 0, append([]byte{9}, ok[1:]...)},
		{"a trailing byte", 0, append(v8(0, Event{}), 0xFF)},
		{"a delta past the end of time", math.MaxInt64 - 1, v8(0, late)},
		{"a delta before the start of time", math.MinInt64, v8(0, Event{Timestamp: time.Unix(0, -1), Action: ActionRead})},
		{"a padded delta", 0, append([]byte{8, 0x82, 0x00}, ok[2:]...)},
		{"a padded shape", 0, shaped(ok, 0x92, 0x00)},
		{"an action beyond the vocabulary", 0, shaped(ok, byte(len(actionWords)+1)<<3|2)},
		{"a minted trace ID as a token", 0, append(frame.AppendToken(ok[:cut:cut], "0123456789abcdef"), tag...)},
	} {
		cr := newChainReader(noKey, newSymbols())
		cr.prevTime = tc.prev
		_, err := cr.next(nil, tc.b)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (%x) accepted: %v", tc.name, tc.b, err)
		}
	}
	if _, err := newChainReader(noKey, newSymbols()).next(nil, ok); err != nil {
		t.Fatalf("the event the rows garble: %v", err)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 3, Actor: "dr-a", Action: ActionCorrect, Record: "p1", Version: 2, Outcome: OutcomeAllowed, Detail: "typo fix"}
	s := e.String()
	for _, want := range []string{"#3", "dr-a", "correct", "p1/v2", "[allowed]", "typo fix"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

// encodeLegacyEvent is the v2 layout older binaries wrote, Seq and Hash
// included.
func encodeLegacyEvent(e Event) []byte {
	b := binary.BigEndian.AppendUint16(nil, 2)
	b = binary.BigEndian.AppendUint64(b, e.Seq)
	b = frame.AppendTime(b, e.Timestamp)
	b = frame.AppendStr(b, e.Actor)
	b = frame.AppendStr(b, string(e.Action))
	b = frame.AppendStr(b, e.Record)
	b = binary.BigEndian.AppendUint64(b, e.Version)
	b = frame.AppendStr(b, string(e.Outcome))
	b = frame.AppendStr(b, e.Detail)
	b = frame.AppendStr(b, e.Trace)
	b = append(b, e.PrevHash[:]...)
	b = append(b, e.Hash[:]...)
	return frame.AppendBytes(b, e.MAC)
}

// encodeV7Event is the v7 layout older binaries wrote: the whole time, and
// each word and the trace with a header of its own.
func encodeV7Event(e Event, nums [numSyms]int) []byte {
	b := append([]byte(nil), codecV7)
	b = frame.AppendTime(b, e.Timestamp)
	b = frame.AppendSymbol(b, e.Actor, nums[symActor])
	b = frame.AppendWord(b, string(e.Action), actionWords)
	b = frame.AppendSymbol(b, e.Record, nums[symRecord])
	b = frame.AppendUvarint(b, e.Version)
	b = frame.AppendWord(b, string(e.Outcome), outcomeWords)
	b = frame.AppendSymbol(b, e.Detail, nums[symDetail])
	b = frame.AppendToken(b, e.Trace)
	return append(b, e.MAC...)
}

// encodeV6Event is the v6 layout older binaries wrote: v7 with the whole
// 32-byte MAC in place of the tag.
func encodeV6Event(e Event, nums [numSyms]int) []byte {
	b := append([]byte(nil), codecV6)
	b = frame.AppendTime(b, e.Timestamp)
	b = frame.AppendSymbol(b, e.Actor, nums[symActor])
	b = frame.AppendWord(b, string(e.Action), actionWords)
	b = frame.AppendSymbol(b, e.Record, nums[symRecord])
	b = frame.AppendUvarint(b, e.Version)
	b = frame.AppendWord(b, string(e.Outcome), outcomeWords)
	b = frame.AppendSymbol(b, e.Detail, nums[symDetail])
	b = frame.AppendToken(b, e.Trace)
	return append(b, e.MAC...)
}

// encodeV5Event is the v5 layout older binaries wrote: v6 with the link
// stored before the MAC, which a uvarint length prefixes.
func encodeV5Event(e Event, nums [numSyms]int) []byte {
	b := append([]byte(nil), codecV5)
	b = frame.AppendTime(b, e.Timestamp)
	b = frame.AppendSymbol(b, e.Actor, nums[symActor])
	b = frame.AppendWord(b, string(e.Action), actionWords)
	b = frame.AppendSymbol(b, e.Record, nums[symRecord])
	b = frame.AppendUvarint(b, e.Version)
	b = frame.AppendWord(b, string(e.Outcome), outcomeWords)
	b = frame.AppendSymbol(b, e.Detail, nums[symDetail])
	b = frame.AppendToken(b, e.Trace)
	b = append(b, e.PrevHash[:linkLen]...)
	return frame.AppendVarBytes(b, e.MAC)
}

// appendV5 is Log.Append as a binary that wrote v5 events did it: the link
// on the medium and the whole MAC under v5's domain.
func appendV5(t *testing.T, l *Log, e Event) Event {
	t.Helper()
	return appendLegacy(t, l, e, codecV5, encodeV5Event)
}

// appendV7 is Log.Append as a binary that wrote v7 events did it: the whole
// time, and a header per word and for the trace.
func appendV7(t *testing.T, l *Log, e Event) Event {
	t.Helper()
	return appendLegacy(t, l, e, codecV7, encodeV7Event)
}

// appendV6 is Log.Append as a binary that wrote v6 events did it: the whole
// MAC under v6's domain.
func appendV6(t *testing.T, l *Log, e Event) Event {
	t.Helper()
	return appendLegacy(t, l, e, codecV6, encodeV6Event)
}

func appendLegacy(t *testing.T, l *Log, e Event, ver byte, encode func(Event, [numSyms]int) []byte) Event {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.places.n
	e.Timestamp = l.now().UTC()
	e.PrevHash = l.lastHash
	var msg []byte
	e.Hash, msg = chainSums(nil, &e, ver)
	if ver == codecV7 {
		e.MAC = l.mac.Tag(nil, msg)
	} else {
		e.MAC = l.mac.Sum(nil, msg)
	}
	ref, err := l.store.Append(encode(e, l.syms.numbers(e)))
	if err != nil {
		t.Fatal(err)
	}
	l.place(ref, &e)
	return e
}

// encodeV4Event is the v4 layout older binaries wrote: v5 with the whole
// PrevHash in place of the link.
func encodeV4Event(e Event, nums [numSyms]int) []byte {
	b := append([]byte(nil), codecV4)
	b = frame.AppendTime(b, e.Timestamp)
	b = frame.AppendSymbol(b, e.Actor, nums[symActor])
	b = frame.AppendWord(b, string(e.Action), actionWords)
	b = frame.AppendSymbol(b, e.Record, nums[symRecord])
	b = frame.AppendUvarint(b, e.Version)
	b = frame.AppendWord(b, string(e.Outcome), outcomeWords)
	b = frame.AppendSymbol(b, e.Detail, nums[symDetail])
	b = frame.AppendToken(b, e.Trace)
	b = append(b, e.PrevHash[:]...)
	return frame.AppendVarBytes(b, e.MAC)
}

// encodeV3Event is the v3 layout older binaries wrote: v4 with every symbol
// field a token.
func encodeV3Event(e Event) []byte {
	b := append([]byte(nil), codecV3)
	b = frame.AppendTime(b, e.Timestamp)
	b = frame.AppendToken(b, e.Actor)
	b = frame.AppendWord(b, string(e.Action), actionWords)
	b = frame.AppendToken(b, e.Record)
	b = frame.AppendUvarint(b, e.Version)
	b = frame.AppendWord(b, string(e.Outcome), outcomeWords)
	b = frame.AppendToken(b, e.Detail)
	b = frame.AppendToken(b, e.Trace)
	b = append(b, e.PrevHash[:]...)
	return frame.AppendVarBytes(b, e.MAC)
}

// layouts are the stored layouts a medium may hold, each as an encoder of
// the i-th event of a chain.
var layouts = map[string]func(events []Event, i int) []byte{
	"v2": func(events []Event, i int) []byte { return encodeLegacyEvent(events[i]) },
	"v3": func(events []Event, i int) []byte { return encodeV3Event(events[i]) },
	"v4": func(events []Event, i int) []byte { return encodeV4Event(events[i], numbersAt(events[:i], events[i])) },
}

// TestLegacyEventsStillVerify: a medium older binaries began, in the v2, v3
// and then the v4 layout, each event MACed over its hash as they did, opens,
// verifies against the checkpoint of the same chain written in the current
// layout, answers queries and keeps growing in the current layout, whose
// first events already refer to values the older events defined; a v2 event
// whose stored Seq or Hash disagrees with what the reader computes breaks
// the chain.
func TestLegacyEventsStillVerify(t *testing.T) {
	store := blockstore.NewMemory(0)
	l, signer, key := newTestLog(t, store)
	appendN(t, l, 12)
	cp := l.Checkpoint()
	_, events := storedEvents(t, store)
	mac := vcrypto.NewKeyedMAC(key)
	for i := range events {
		events[i].MAC = mac.Sum(nil, events[i].Hash[:])
	}

	medium := func(encode func(i int) []byte) *blockstore.File {
		m := blockstore.NewMemory(0)
		for i := range events {
			if _, err := m.Append(encode(i)); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	mixed := medium(func(i int) []byte {
		switch {
		case i < 2:
			return layouts["v2"](events, i)
		case i < 6:
			return layouts["v3"](events, i)
		}
		return layouts["v4"](events, i)
	})
	re, err := Open(Config{Store: mixed, MACKey: key, Signer: signer})
	if err != nil {
		t.Fatalf("open over v2, v3 then v4 events: %v", err)
	}
	if _, err := re.Verify(signer.Public(), cp); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := allEvents(t, re); !reflect.DeepEqual(got, events) {
		t.Fatal("a mixed medium reads back different events")
	}
	if got, err := re.Search(Query{Record: "patient-0"}); err != nil || len(got) != 3 {
		t.Fatalf("record query over v2, v3 and v4 events: %d, %v; want 3", len(got), err)
	}
	appendN(t, re, 2)
	if n, err := re.Verify(nil); err != nil || n != 14 {
		t.Fatalf("Verify after appending the current layout to a v2/v3/v4 log: %d, %v", n, err)
	}

	// A genuine event copied over another under a running log: in v2 its
	// stored seq names another place, in v3 and v4 its MAC covers another
	// place. Events 8 and 9 refer to every symbol value, so in v4 both have
	// the same length.
	for name, encode := range layouts {
		moved := medium(func(i int) []byte { return encode(events, i) })
		running, err := Open(Config{Store: moved, MACKey: key, Signer: signer})
		if err != nil {
			t.Fatal(err)
		}
		refs, _ := storedEvents(t, moved)
		if err := moved.CorruptFrame(refs[8], func([]byte) []byte { return encode(events, 9) }); err != nil {
			t.Fatal(err)
		}
		if got, err := running.Search(Query{Record: events[8].Record}); !errors.Is(err, ErrChainBroken) {
			t.Errorf("%s: query over a moved event: %d events, %v; want ErrChainBroken", name, len(got), err)
		}
	}

	for name, forge := range map[string]func(e *Event){
		"stale stored hash": func(e *Event) { e.Hash[0] ^= 1 },
		"wrong stored seq":  func(e *Event) { e.Seq = 9 },
	} {
		bad := medium(func(i int) []byte {
			e := events[i]
			if i == 2 {
				forge(&e)
			}
			return encodeLegacyEvent(e)
		})
		if _, err := Open(Config{Store: bad, MACKey: key, Signer: signer}); !errors.Is(err, ErrChainBroken) {
			t.Errorf("%s: Open = %v, want ErrChainBroken", name, err)
		}
	}
}

// TestV5ThenV6EventsVerify: a log an older binary began in v5 continues in
// the layout the running log appends, v7, and opens, verifies and answers
// posting-list queries, v5 events read with the link the log keeps resident
// as v7 ones are. A v7 event re-spelled as v5 — the link its tag covers
// written out, a length before the tag — fails its MAC, which v5's own
// domain covers.
func TestV5ThenV6EventsVerify(t *testing.T) {
	store := blockstore.NewMemory(0)
	l, signer, key := newTestLog(t, store)
	for i := 0; i < 6; i++ {
		appendV5(t, l, Event{Actor: fmt.Sprintf("dr-%d", i%3), Action: ActionRead, Record: fmt.Sprintf("patient-%d", i%5), Outcome: OutcomeAllowed, Detail: "routine"})
	}
	re, err := Open(Config{Store: store, MACKey: key, Signer: signer})
	if err != nil {
		t.Fatalf("open over v5 events: %v", err)
	}
	appendN(t, re, 6)
	if re, err = Open(Config{Store: store, MACKey: key, Signer: signer}); err != nil {
		t.Fatalf("open over v5 then v7 events: %v", err)
	}
	if n, err := re.Verify(nil); err != nil || n != 12 {
		t.Fatalf("Verify over v5 then v7 events: %d, %v; want 12", n, err)
	}
	refs, events := storedEvents(t, store)
	for i, ref := range refs {
		b, err := store.Read(ref)
		if err != nil {
			t.Fatal(err)
		}
		want := byte(codecV5)
		if i >= 6 {
			want = codecVersion
		}
		if b[0] != want {
			t.Errorf("event %d is stored in v%d, want v%d", i, b[0], want)
		}
	}
	for _, q := range []Query{{Record: "patient-0"}, {Actor: "dr-1"}, {Record: "patient-4"}} {
		got, err := re.Search(q)
		if err != nil {
			t.Fatalf("%+v over v5 and v7 events: %v", q, err)
		}
		var want []Event
		for _, e := range events {
			if q.matches(&e) {
				want = append(want, fromPostingList(e))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: %d events, want %d as the chain holds them", q, len(got), len(want))
		}
	}

	respelled := blockstore.NewMemory(0)
	for i, e := range events {
		p := encodeAt(events, i, e)
		if i < 6 || i == 8 {
			p = encodeV5Event(e, numbersAt(events[:i], e))
		}
		if _, err := respelled.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(Config{Store: respelled, MACKey: key, Signer: signer}); !errors.Is(err, ErrBadMAC) {
		t.Errorf("Open over a v7 event re-spelled as v5: %v, want ErrBadMAC", err)
	}
}

// TestV6ThenV7EventsVerify: a log an older binary began in v6, with a
// checkpoint signed over it, continues in v7 in the same segment, and opens,
// verifies against that checkpoint and answers posting-list queries, v6
// events checked by their whole MAC and v7 ones by their tag.
func TestV6ThenV7EventsVerify(t *testing.T) {
	store := blockstore.NewMemory(0)
	l, signer, key := newTestLog(t, store)
	for i := 0; i < 6; i++ {
		appendV6(t, l, Event{Actor: fmt.Sprintf("dr-%d", i%3), Action: ActionRead, Record: fmt.Sprintf("patient-%d", i%5), Outcome: OutcomeAllowed, Detail: "routine"})
	}
	cp := l.Checkpoint()
	re, err := Open(Config{Store: store, MACKey: key, Signer: signer})
	if err != nil {
		t.Fatalf("open over v6 events: %v", err)
	}
	appendN(t, re, 6)
	if re, err = Open(Config{Store: store, MACKey: key, Signer: signer}); err != nil {
		t.Fatalf("open over v6 then v7 events: %v", err)
	}
	if n, err := re.Verify(nil); err != nil || n != 12 {
		t.Fatalf("Verify over v6 then v7 events: %d, %v; want 12", n, err)
	}
	if _, err := re.Verify(signer.Public(), cp); err != nil {
		t.Fatalf("the checkpoint signed over the v6 events: %v", err)
	}
	refs, events := storedEvents(t, store)
	for i, ref := range refs {
		b, err := store.Read(ref)
		if err != nil {
			t.Fatal(err)
		}
		want, macLen := byte(codecV6), macLenV6
		if i >= 6 {
			want, macLen = codecVersion, vcrypto.TagSize
		}
		if b[0] != want || len(events[i].MAC) != macLen || refs[i].Segment != 0 {
			t.Errorf("event %d is stored in v%d with a %d-B MAC in segment %d, want v%d, %d B, segment 0", i, b[0], len(events[i].MAC), refs[i].Segment, want, macLen)
		}
	}
	for _, q := range []Query{{Record: "patient-0"}, {Actor: "dr-1"}, {Record: "patient-4"}, {Actor: "dr-2", Record: "patient-2"}} {
		got, err := re.Search(q)
		if err != nil {
			t.Fatalf("%+v over v6 and v7 events: %v", q, err)
		}
		var want []Event
		for _, e := range events {
			if q.matches(&e) {
				want = append(want, fromPostingList(e))
			}
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: %d events, want %d (> 0) as the chain holds them", q, len(got), len(want))
		}
	}
}

// TestTagRespellingsFailTheirMAC: a format-aware insider without the key
// cannot move an event between the tag layouts and the whole-MAC one. A
// tagged event (written in v8, whose tag is v7's) re-spelled as v6 with its
// tag zero-padded to 32 bytes fails, as does a v6 event cut to v7 with its
// MAC's first 16 bytes kept: v7 and v6 MAC inputs each have a domain of their
// own, so neither is the other's MAC. Each medium is otherwise genuine, and
// opens as written.
func TestTagRespellingsFailTheirMAC(t *testing.T) {
	const at = 4
	for _, tc := range []struct {
		name    string
		write   func(t *testing.T, l *Log, e Event)
		respell func(e Event, nums [numSyms]int) []byte
		ver     byte // the layout the re-spelled event claims
	}{
		{"v7 re-spelled as v6, tag zero-padded", func(t *testing.T, l *Log, e Event) {
			t.Helper()
			if _, err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}, func(e Event, nums [numSyms]int) []byte {
			e.MAC = append(bytes.Clone(e.MAC), make([]byte, macLenV6-len(e.MAC))...)
			return encodeV6Event(e, nums)
		}, codecV6},
		{"v6 cut to v7, MAC truncated", func(t *testing.T, l *Log, e Event) { appendV6(t, l, e) },
			func(e Event, nums [numSyms]int) []byte {
				e.MAC = e.MAC[:vcrypto.TagSize]
				return encodeV7Event(e, nums)
			}, codecV7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := blockstore.NewMemory(0)
			l, signer, key := newTestLog(t, store)
			for i := 0; i < 8; i++ {
				tc.write(t, l, Event{Actor: fmt.Sprintf("dr-%d", i%3), Action: ActionRead, Record: fmt.Sprintf("patient-%d", i%5), Outcome: OutcomeAllowed, Detail: "routine"})
			}
			_, events := storedEvents(t, store)
			medium := func(respell bool) *blockstore.File {
				m := blockstore.NewMemory(0)
				for i, e := range events {
					nums := numbersAt(events[:i], e)
					p := encodeAt(events, i, e)
					if len(e.MAC) != vcrypto.TagSize {
						p = encodeV6Event(e, nums)
					}
					if respell && i == at {
						if p = tc.respell(e, nums); p[0] != tc.ver {
							t.Fatalf("re-spelled event is v%d, want v%d", p[0], tc.ver)
						}
					}
					if _, err := m.Append(p); err != nil {
						t.Fatal(err)
					}
				}
				return m
			}
			if _, err := Open(Config{Store: medium(false), MACKey: key, Signer: signer}); err != nil {
				t.Fatalf("the medium as written: %v", err)
			}
			if _, err := Open(Config{Store: medium(true), MACKey: key, Signer: signer}); !errors.Is(err, ErrBadMAC) {
				t.Errorf("Open = %v, want ErrBadMAC at event %d", err, at)
			}
		})
	}
}

// TestPlacesFindEverySegment: a log anchors every anchorEvery-th event, the
// first of each segment and the tail's first, so the anchor at or before any
// event is in its segment and its stretch reaches it: across a segment that
// holds no event, at an offset past 4 GiB in a segment, and in the tail,
// whose offsets are kept at full width too.
func TestPlacesFindEverySegment(t *testing.T) {
	var refs []blockstore.Ref
	for i := range 40 {
		refs = append(refs, blockstore.Ref{Segment: 0, Offset: uint64(90 * i)})
	}
	refs = append(refs, blockstore.Ref{Segment: 2, Offset: 0}, blockstore.Ref{Segment: 2, Offset: 5 << 30}, blockstore.Ref{Segment: 3, Offset: 0})
	for i := range 35 {
		refs = append(refs, blockstore.Ref{Segment: pendingSegment, Offset: 5<<30 + uint64(7*i)})
	}
	var p places
	for seq, ref := range refs {
		p.add(ref, [32]byte{byte(seq)}, int64(seq)<<40)
	}
	var seqs []uint64
	for _, a := range p.anchors {
		seqs = append(seqs, a.seq)
		if a.ref != refs[a.seq] || a.prev != [32]byte{byte(a.seq)} || a.prevTime != int64(a.seq)<<40 {
			t.Errorf("anchor of event %d holds %v after %x at %d, want %v", a.seq, a.ref, a.prev[0], a.prevTime, refs[a.seq])
		}
	}
	if want := []uint64{0, 32, 40, 42, 43, 64}; !reflect.DeepEqual(seqs, want) {
		t.Errorf("anchors at %v, want %v", seqs, want)
	}
	for seq, ref := range refs {
		i := p.at(uint64(seq))
		if a := p.anchors[i]; a.seq > uint64(seq) || a.ref.Segment != ref.Segment {
			t.Errorf("event %d in segment %d: anchor %d in segment %d", seq, ref.Segment, a.seq, a.ref.Segment)
		}
	}
	if p.n != uint64(len(refs)) || p.stored != 43 {
		t.Errorf("%d events placed, %d stored; want %d, 43", p.n, p.stored, len(refs))
	}
}

// TestStoredBytesPerEvent is the budget for what one event costs the medium,
// frame included, with the strings the server writes: an actor from a small
// staff, an authorization reason as Detail and a generated 16-hex trace ID.
// When every event reads a record no earlier event named, each writes its
// record ID out; when reads repeat records drawn from 100, nearly every event
// refers to all three symbol values. The v2 layout, which also stored Seq
// and Hash, cost 248 B in the first case; v3, which wrote every string out,
// 160 B in both; and v4, which stored all 32 bytes of PrevHash where v5
// stores an 8-byte link, 118 and 100 B. v5 in a 9-byte frame.Block frame
// cost 94.1 and 76.1 B; a frame.Var frame takes 5 B of a sub-128-B event,
// and v5 in one 90.1 and 72.1 B. v6, which stores no link and no MAC
// length, cost 9 B less: 81.1 and 63.1 B. v7 stores a 16-B tag where v6
// stored a 32-B MAC: 65.1 and 47.1 B. v8 stores the time as its step from
// its predecessor's, here 1 ms (3 B where v7 spent 8), and the action, the
// outcome and the trace's shape in one byte where v7 spent three: 58.1 and
// 40.1 B.
func TestStoredBytesPerEvent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		records int
		budget  float64
	}{
		{"every record new", 3000, 59},
		{"records drawn from 100", 100, 41},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const events = 1000
			store := blockstore.NewMemory(0)
			signer, err := vcrypto.NewSigner()
			if err != nil {
				t.Fatal(err)
			}
			l, err := Open(Config{Store: store, MACKey: vcrypto.Key{1}, Signer: signer, Now: ticker(time.Now(), time.Millisecond)})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < events; i++ {
				rec := i
				if tc.records < events {
					rec = rng.Intn(tc.records)
				}
				_, err := l.Append(Event{
					Actor:   fmt.Sprintf("dr-%d", i%16),
					Action:  ActionRead,
					Record:  fmt.Sprintf("w0-mrn-%06d-enc-0", rec),
					Version: 1,
					Outcome: OutcomeAllowed,
					Detail:  `role physician permits read on "clinical"`,
					Trace:   fmt.Sprintf("%016x", rng.Uint64()),
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			per := float64(store.StorageBytes()) / events
			t.Logf("stored: %.1f B/event", per)
			if per > tc.budget {
				t.Errorf("an event costs the medium %.1f B, budget is %.0f", per, tc.budget)
			}
		})
	}
}

// TestSymbolsAreCanonical: a v4 event has one encoding given the chain before
// it, and the sequential reader behind Open and Verify refuses any other —
// a reference to a number the prefix has not defined (one a later event
// defines, or none does) and a known value written out again. The last
// decodes to the very event the MAC covers, so only this rule catches it.
func TestSymbolsAreCanonical(t *testing.T) {
	store := blockstore.NewMemory(0)
	l, signer, key := newTestLog(t, store)
	appendN(t, l, 8)
	_, events := storedEvents(t, store)
	numbers := func(i int) [numSyms]int { return numbersAt(events[:i], events[i]) }
	for name, forge := range map[string]func() (int, []byte){
		// Event 1 defines dr-1 and patient-1; event 3 refers to dr-0 (#0).
		"forward reference": func() (int, []byte) {
			n := numbers(1)
			n[symRecord] = 3 // patient-3, which event 3 defines
			return 1, encodeEvent(events[1], n, prevTime(events, 1))
		},
		"dangling reference": func() (int, []byte) {
			n := numbers(5)
			n[symActor] = 40
			return 5, encodeEvent(events[5], n, prevTime(events, 5))
		},
		"known value written out": func() (int, []byte) {
			n := numbers(3)
			n[symActor] = -1 // dr-0, defined by event 0
			return 3, encodeEvent(events[3], n, prevTime(events, 3))
		},
		"known detail written out": func() (int, []byte) {
			n := numbers(6)
			n[symDetail] = -1
			return 6, encodeEvent(events[6], n, prevTime(events, 6))
		},
	} {
		at, b := forge()
		m := blockstore.NewMemory(0)
		for i, e := range events {
			p := encodeAt(events, i, e)
			if i == at {
				p = b
			}
			if _, err := m.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Open(Config{Store: m, MACKey: key, Signer: signer}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestEditedDefinitionFailsVerify: every reference to a symbol rests on the
// event that defined it. An insider who rewrites a defining event in place
// (same length, valid frame CRC) changes what that event and every later
// reference decode to, so Verify fails at the definition, and so does Open.
// A running log still resolves the references through its resident tables,
// but a query's stream checks every event it passes, so a query over a later
// event that refers to the edited definition fails at that definition too.
func TestEditedDefinitionFailsVerify(t *testing.T) {
	store := blockstore.NewMemory(0)
	l, signer, key := newTestLog(t, store)
	appendN(t, l, 9)
	refs, events := storedEvents(t, store)
	edited := events[1] // defines dr-1, which events 4 and 7 refer to
	edited.Actor = "dr-7"
	rewriteStored(t, store, refs[1], encodeAt(events, 1, edited))
	if n, err := l.Verify(nil); !errors.Is(err, ErrBadMAC) || n != 1 {
		t.Errorf("edited definition: verified %d, %v; want 1, ErrBadMAC", n, err)
	}
	if _, err := Open(Config{Store: store, MACKey: key, Signer: signer}); !errors.Is(err, ErrBadMAC) {
		t.Errorf("Open over an edited definition: %v, want ErrBadMAC", err)
	}
	if _, err := l.Search(Query{Actor: "dr-1"}); !errors.Is(err, ErrBadMAC) {
		t.Errorf("query over the edited definition: %v, want ErrBadMAC", err)
	}
	if got, err := l.Search(Query{Record: "patient-4"}); !errors.Is(err, ErrBadMAC) {
		t.Errorf("query over event 4, which refers to the edited definition: %v, %v; want ErrBadMAC", got, err)
	}
}

func TestInjectedClock(t *testing.T) {
	store := blockstore.NewMemory(0)
	signer, _ := vcrypto.NewSigner()
	key, _ := vcrypto.NewKey()
	fixed := time.Date(2040, 1, 2, 3, 4, 5, 0, time.UTC)
	l, err := Open(Config{Store: store, MACKey: key, Signer: signer, Now: func() time.Time { return fixed }})
	if err != nil {
		t.Fatal(err)
	}
	e, err := l.Append(Event{Actor: "a", Action: ActionRead, Outcome: OutcomeAllowed})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Timestamp.Equal(fixed) {
		t.Errorf("timestamp = %v, want %v", e.Timestamp, fixed)
	}
}

// heapInUse is the least heap in use over three readings, each after two
// collections: another goroutine's live bytes can land in one reading, while
// the structure under test is live in all three.
func heapInUse() int64 {
	least := int64(math.MaxInt64)
	for range 3 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		least = min(least, int64(ms.HeapAlloc))
	}
	return least
}

// TestResidentBytesPerRecord budgets what the log keeps in RAM per record at
// a vault's shape — 20,000 records of one or two events each, by a handful
// of actors — where each record's symbol-table entry and posting list
// outweigh its events' anchors, which this figure leaves out and budgets on
// their own. With posting lists in a map keyed by value, a second map for
// details and symbol tables of strings it measured 152.4 B/record; with a
// recno.Table per symbol field, posting lists in a slice indexed by symbol
// number and a one-seq list held without gaps, 103.4. The budget is 70 % of
// the old figure. A 12-B slot per event took 18.8 B/record; 56-B anchors
// took 2.9. An anchor also holds its predecessor's time, which a v8 event's
// counts from: 64 B, and 3.0 B/record of live anchors.
func TestResidentBytesPerRecord(t *testing.T) {
	const records, budget, anchorBudget = 20_000, 106, 4
	store, err := blockstore.OpenFile(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	before := heapInUse()
	l, _, _ := newTestLog(t, store)
	for i := 0; i < records; i++ {
		e := Event{
			Actor:   fmt.Sprintf("dr-%d", i%4),
			Action:  ActionCreate,
			Record:  fmt.Sprintf("w%d-mrn-%06d-enc-%d", i%2, i/3, i%3),
			Version: 1,
			Outcome: OutcomeAllowed,
			Detail:  "role physician permits create on clinical",
			Trace:   fmt.Sprintf("%016x", i),
		}
		events := []Event{e}
		if i%2 == 0 {
			e.Action, e.Detail = ActionRead, "role physician permits read on clinical"
			events = append(events, e)
		}
		for _, e := range events {
			if _, err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	grown := heapInUse() - before
	anchors := int64(cap(l.places.anchors)) * int64(unsafe.Sizeof(anchor{}))
	runtime.KeepAlive(l)
	per := float64(grown-anchors) / records
	t.Logf("resident: %.1f B/record over %d records and %d events (152.4 with map-keyed lists), besides %.1f B/record of anchors",
		per, records, l.Len(), float64(anchors)/records)
	if per > budget {
		t.Errorf("log keeps %.1f B/record resident, budget is %d", per, budget)
	}
	if per := float64(anchors) / records; per > anchorBudget {
		t.Errorf("log keeps %.1f B/record of anchors, budget is %d", per, anchorBudget)
	}
}

// memTail is a Tail over an in-memory owner's log whose entries are written
// as they are enqueued: a standalone event's bytes, or a folded one's host
// fields and fold.
// memTail is a tail in memory whose entry i is at offset base+i.
type memTail struct {
	entries []tailEntry
	wedge   error
	base    int64
}

type tailEntry struct {
	host *Event
	data []byte
}

func (m *memTail) tail() Tail {
	return Tail{
		Enqueue: func(entry []byte) (int64, error) { return m.put(nil, entry) },
		Wedged:  func() error { return m.wedge },
		Scan: func(off int64, fn func(int64, *Event, []byte) error) error {
			for i := off - m.base; i < int64(len(m.entries)); i++ {
				if err := fn(m.base+i, m.entries[i].host, m.entries[i].data); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// cut empties m as the owner's log is cut after a Flush: its next entry
// follows the last at the next offset.
func (m *memTail) cut() {
	m.base += int64(len(m.entries))
	m.entries = nil
}

func (m *memTail) put(host *Event, data []byte) (int64, error) {
	if m.wedge != nil {
		return 0, m.wedge
	}
	m.entries = append(m.entries, tailEntry{host, bytes.Clone(data)})
	return m.base + int64(len(m.entries)-1), nil
}

// fold appends e folded into a host entry of m's.
func (m *memTail) fold(t *testing.T, l *Log, e Event) {
	t.Helper()
	host := Event{Actor: e.Actor, Action: e.Action, Record: e.Record, Version: e.Version, Outcome: e.Outcome, Timestamp: e.Timestamp.UTC()}
	if err := l.AppendFolded(e, func(fold []byte) (int64, error) { return m.put(&host, fold) }); err != nil {
		t.Fatal(err)
	}
}

// resume replays m's entries into l, as the owner's recovery does.
func (m *memTail) resume(l *Log) error {
	for i, e := range m.entries {
		if err := l.Resume(m.base+int64(i), e.host, e.data); err != nil {
			return err
		}
	}
	return nil
}

// tailScript appends to l, whose tail is m, a mix of standalone events, a
// break-glass pair and folded ones that write out new values and refer to
// old ones.
func tailScript(t *testing.T, l *Log, m *memTail, at time.Time) {
	t.Helper()
	for i := 0; i < 6; i++ {
		if _, err := l.AppendAll([]Event{
			{Actor: fmt.Sprintf("dr-%d", i%2), Action: ActionRead, Record: fmt.Sprintf("rec-%d", i%3), Outcome: OutcomeAllowed, Detail: "role physician permits read", Trace: "0af7651916cd43dd"},
			{Actor: "nurse", Action: ActionBreakGlass, Record: fmt.Sprintf("rec-%d", i%3), Outcome: OutcomeAllowed, Detail: "grant"},
		}[:1+i%2]); err != nil {
			t.Fatal(err)
		}
		m.fold(t, l, Event{Actor: fmt.Sprintf("dr-%d", i%3), Action: ActionCreate, Record: fmt.Sprintf("new-%d", i), Version: 1,
			Outcome: OutcomeAllowed, Detail: "role physician permits write", Timestamp: at.Add(time.Duration(i) * time.Second)})
	}
}

// TestTailKeepsTheChainUntilFlush: with a tail the store holds nothing until
// Flush, readers read every event from the tail as the store would serve it,
// and after Flush the store holds the same chain — standalone events byte
// for byte, folded ones as v7 events with their own tags — which a reopened
// log verifies and answers alike. A log reopened before Flush resumes the
// chain from the tail's entries. The owner's log is cut only at its
// checkpoint, so it may outgrow 4 GiB: the same holds with every entry past
// that.
func TestTailKeepsTheChainUntilFlush(t *testing.T) {
	for _, base := range []int64{0, 5 << 30} {
		t.Run(fmt.Sprintf("base %d", base), func(t *testing.T) { checkTailUntilFlush(t, base) })
	}
}

func checkTailUntilFlush(t *testing.T, base int64) {
	store := blockstore.NewMemory(0)
	l, signer, key := newTestLog(t, store)
	m := &memTail{base: base}
	l.Attach(m.tail())
	tailScript(t, l, m, time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC))
	if store.StorageBytes() != 0 {
		t.Fatalf("the store holds %d B before Flush", store.StorageBytes())
	}
	want := allEvents(t, l)
	if len(want) != 15 || l.Len() != 15 {
		t.Fatalf("%d events read, Len %d; want 15", len(want), l.Len())
	}
	byRecord, err := l.Search(Query{Record: "new-2"})
	if err != nil || len(byRecord) != 1 || byRecord[0].Detail != "role physician permits write" || !byRecord[0].Timestamp.Equal(want[byRecord[0].Seq].Timestamp) {
		t.Fatalf("posting-list read of a folded event: %+v, %v", byRecord, err)
	}
	cp := l.Checkpoint()
	if _, err := l.Verify(signer.Public(), cp); err != nil {
		t.Fatal(err)
	}

	reopen := func(store blockstore.Store) *Log {
		t.Helper()
		re, err := Open(Config{Store: store, MACKey: key, Signer: signer})
		if err != nil {
			t.Fatal(err)
		}
		return re
	}
	// Reopened before Flush: the chain resumes from the tail.
	re := reopen(blockstore.NewMemory(0))
	re.Attach(m.tail())
	if err := m.resume(re); err != nil {
		t.Fatal(err)
	}
	if got := allEvents(t, re); !reflect.DeepEqual(got, want) {
		t.Fatalf("the chain resumed from the tail differs:\n got %v\nwant %v", got, want)
	}

	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	refs, stored := storedEvents(t, store)
	if len(refs) != len(want) {
		t.Fatalf("Flush wrote %d events, want %d", len(refs), len(want))
	}
	for i, e := range m.entries {
		if data, _ := store.Read(refs[i]); e.host == nil && !bytes.Equal(data, e.data) {
			t.Errorf("standalone event %d was not copied byte for byte", i)
		}
	}
	if got := allEvents(t, l); !reflect.DeepEqual(got, want) || stored[1].Action != ActionCreate {
		t.Fatalf("the flushed log reads differently")
	}
	re = reopen(store)
	if got := allEvents(t, re); !reflect.DeepEqual(got, want) {
		t.Fatalf("the flushed chain reopens differently")
	}
	if _, err := re.Verify(signer.Public(), cp); err != nil {
		t.Fatal(err)
	}
}

// cutStore is a store whose appends fail after left of them.
type cutStore struct {
	blockstore.Store
	left int
}

func (c *cutStore) Append(data []byte) (blockstore.Ref, error) {
	if c.left == 0 {
		return blockstore.Ref{}, errors.New("injected append failure")
	}
	c.left--
	return c.Store.Append(data)
}

// TestResumeSkipsWhatAFlushCopied: a cut between Flush's copy and the
// owner's log cut leaves the tail's first events in the store too, all of
// them or, when the copy failed part way, some. Replay skips each after
// checking its tag as the chain from the stored event it repeats, and
// resumes the chain after them; an edited folded event fails its tag
// instead, and so does a tail whose copy ends in another event than the
// store's last.
func TestResumeSkipsWhatAFlushCopied(t *testing.T) {
	at := time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC)
	for _, copied := range []int{0, 5, 15} {
		mem := blockstore.NewMemory(0)
		fs := &cutStore{Store: mem, left: copied}
		l, signer, key := newTestLog(t, nil)
		l.store = fs
		m := &memTail{}
		l.Attach(m.tail())
		tailScript(t, l, m, at)
		want := allEvents(t, l)
		if err := l.Flush(); (err == nil) != (copied == len(want)) {
			t.Fatalf("Flush copying %d of %d: %v", copied, len(want), err)
		}
		re, err := Open(Config{Store: mem, MACKey: key, Signer: signer})
		if err != nil {
			t.Fatal(err)
		}
		re.Attach(m.tail())
		if err := m.resume(re); err != nil {
			t.Fatalf("%d copied: resuming: %v", copied, err)
		}
		if got := allEvents(t, re); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d copied: the resumed chain differs", copied)
		}
		if _, err := re.Append(Event{Actor: "dr-0", Action: ActionRead, Record: "rec-0", Outcome: OutcomeAllowed}); err != nil {
			t.Fatal(err)
		}
		if n, err := re.Verify(nil); err != nil || n != len(want)+1 {
			t.Fatalf("%d copied: %d events verify after one more, %v", copied, n, err)
		}
	}

	l, signer, key := newTestLog(t, nil)
	m := &memTail{}
	l.Attach(m.tail())
	tailScript(t, l, m, at)
	for _, edit := range []func(*Event){
		func(h *Event) { h.Actor = "dr-9" },
		func(h *Event) { h.Timestamp = h.Timestamp.Add(time.Nanosecond) },
	} {
		edited := *m.entries[1].host
		edit(&edited)
		tampered := &memTail{entries: slices.Clone(m.entries)}
		tampered.entries[1].host = &edited
		re, err := Open(Config{Store: blockstore.NewMemory(0), MACKey: key, Signer: signer})
		if err != nil {
			t.Fatal(err)
		}
		re.Attach(tampered.tail())
		if err := tampered.resume(re); !errors.Is(err, ErrBadMAC) {
			t.Errorf("resuming over an edited folded event: %v, want ErrBadMAC", err)
		}
	}

	// A store that holds the tail's first five events and then another the
	// key tagged as the sixth: the tail's sixth checks as the chain from the
	// fifth, but the store ends in another event.
	mem := blockstore.NewMemory(0)
	l, signer, key = newTestLog(t, nil)
	l.store = &cutStore{Store: mem, left: 5}
	m = &memTail{}
	l.Attach(m.tail())
	tailScript(t, l, m, at)
	if err := l.Flush(); err == nil {
		t.Fatal("Flush copied past the store's cut")
	}
	fork, err := Open(Config{Store: mem, MACKey: key, Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fork.Append(Event{Actor: "dr-9", Action: ActionRead, Record: "rec-0", Outcome: OutcomeAllowed}); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Store: mem, MACKey: key, Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	short := &memTail{entries: m.entries[:6]}
	re.Attach(short.tail())
	if err := short.resume(re); !errors.Is(err, ErrChainBroken) {
		t.Errorf("resuming a tail whose copy ends in another event than the store's: %v, want ErrChainBroken", err)
	}
}

// enqueueV7 is a standalone tail append as a binary that wrote v7 did it.
func enqueueV7(t *testing.T, l *Log, m *memTail, e Event) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Timestamp = l.now()
	nums, err := l.seal(&e)
	if err != nil {
		t.Fatal(err)
	}
	off, err := m.put(nil, encodeV7Event(e, nums))
	if err != nil {
		t.Fatal(err)
	}
	l.place(blockstore.Ref{Segment: pendingSegment, Offset: uint64(off)}, &e)
}

// TestV7TailContinuesInV8: a tail an older binary wrote — standalone events
// in v7, folded ones as this binary folds them — resumes under this binary,
// which continues the chain in v8 in the same tail, its first v8 event
// counting its time from the folded event before it. Flush copies the mixed
// chain to the store, the v7 events byte for byte, which reopens, answers
// posting-list queries over both layouts, and verifies against a checkpoint
// signed before the first v8 event and one signed after the last.
func TestV7TailContinuesInV8(t *testing.T) {
	store := blockstore.NewMemory(0)
	l, signer, key := newTestLog(t, store)
	m := &memTail{}
	l.Attach(m.tail())
	at := time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		enqueueV7(t, l, m, Event{Actor: fmt.Sprintf("dr-%d", i%2), Action: ActionRead, Record: fmt.Sprintf("rec-%d", i%3),
			Outcome: OutcomeAllowed, Detail: "role physician permits read", Trace: "0af7651916cd43dd"})
		m.fold(t, l, Event{Actor: fmt.Sprintf("dr-%d", i%3), Action: ActionCreate, Record: fmt.Sprintf("old-%d", i), Version: 1,
			Outcome: OutcomeAllowed, Detail: "role physician permits write", Timestamp: at.Add(time.Duration(i) * time.Second)})
	}
	before := l.Checkpoint()

	re, err := Open(Config{Store: store, MACKey: key, Signer: signer, Now: l.now})
	if err != nil {
		t.Fatal(err)
	}
	re.Attach(m.tail())
	if err := m.resume(re); err != nil {
		t.Fatalf("resuming a v7 tail: %v", err)
	}
	tailScript(t, re, m, at.Add(time.Hour))
	var layouts []byte
	for _, e := range m.entries {
		if e.host == nil {
			layouts = append(layouts, e.data[0])
		}
	}
	if want := append(bytes.Repeat([]byte{codecV7}, 4), bytes.Repeat([]byte{codecVersion}, 9)...); !bytes.Equal(layouts, want) {
		t.Fatalf("the tail's standalone events are in layouts %v, want %v", layouts, want)
	}
	want := allEvents(t, re)
	after := re.Checkpoint()
	if n, err := re.Verify(signer.Public(), before, after); err != nil || n != 8+15 {
		t.Fatalf("Verify over the mixed tail: %d, %v; want %d", n, err, 8+15)
	}

	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	refs, _ := storedEvents(t, store)
	for i, ref := range refs {
		data, err := store.Read(ref)
		if err != nil {
			t.Fatal(err)
		}
		if v7 := i < 8 && i%2 == 0; v7 && !bytes.Equal(data, m.entries[i].data) || !v7 && data[0] != codecVersion {
			t.Errorf("event %d is stored in v%d; want the tail's v7 bytes for a v7 event, v8 for any other", i, data[0])
		}
	}
	flushed, err := Open(Config{Store: store, MACKey: key, Signer: signer})
	if err != nil {
		t.Fatalf("reopening the flushed mixed chain: %v", err)
	}
	if got := allEvents(t, flushed); !reflect.DeepEqual(got, want) {
		t.Fatal("the flushed mixed chain reads back differently")
	}
	for _, q := range []Query{{Record: "rec-1"}, {Actor: "dr-1"}} {
		got, err := flushed.Search(q)
		var hits []Event
		for _, e := range want {
			if q.matches(&e) {
				hits = append(hits, fromPostingList(e))
			}
		}
		if err != nil || len(hits) < 4 || !reflect.DeepEqual(got, hits) {
			t.Errorf("%+v over v7 and v8 events: %d events, %v; want %d", q, len(got), err, len(hits))
		}
	}
	if _, err := flushed.Verify(signer.Public(), before, after); err != nil {
		t.Errorf("the checkpoints signed before and after the first v8 event: %v", err)
	}
}
