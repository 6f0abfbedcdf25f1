package provenance

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"medvault/internal/blockstore"
	"medvault/internal/frame"
	"medvault/internal/obs"
	"medvault/internal/vcrypto"
)

func newTracker(t *testing.T, system string, store blockstore.Store) (*Tracker, *vcrypto.Signer) {
	t.Helper()
	signer, err := vcrypto.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	if store == nil {
		store = blockstore.NewMemory(0)
	}
	tr, err := Open(Config{Store: store, Signer: signer, System: system})
	if err != nil {
		t.Fatal(err)
	}
	return tr, signer
}

func TestRecordBuildsChain(t *testing.T) {
	tr, _ := newTracker(t, "hospital-a", nil)
	h1 := vcrypto.Hash([]byte("v1"))
	h2 := vcrypto.Hash([]byte("v2"))

	e1, err := tr.Record("patient-1", EventCreated, "dr-jones", h1, "")
	if err != nil {
		t.Fatal(err)
	}
	if e1.Index != 0 || e1.System != "hospital-a" || e1.PrevHash != ([32]byte{}) {
		t.Errorf("genesis event malformed: %+v", e1)
	}
	e2, err := tr.Record("patient-1", EventCorrected, "dr-smith", h2, "")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Index != 1 || e2.PrevHash != e1.Hash {
		t.Errorf("chain linkage broken: %+v", e2)
	}
	if err := tr.Verify("patient-1", nil); err != nil {
		t.Errorf("Verify: %v", err)
	}
	chain, err := tr.Chain("patient-1")
	if err != nil || len(chain) != 2 {
		t.Fatalf("Chain: %d events, err %v", len(chain), err)
	}
}

// fakeLog is an owner's log of mutations for pending events: a ref's offset
// is its entry's place. Reads counts Config.Pending calls.
type fakeLog struct {
	entries []Event
	reads   int
}

// log appends a mutation of p1 by dr-jones and returns the ref of its entry.
func (l *fakeLog) log(typ EventType, hash [32]byte, at time.Time) blockstore.Ref {
	return l.logOf("p1", typ, hash, at)
}

// logOf appends a mutation of id by dr-jones.
func (l *fakeLog) logOf(id string, typ EventType, hash [32]byte, at time.Time) blockstore.Ref {
	l.entries = append(l.entries, Event{Record: id, Type: typ, Actor: "dr-jones", ContentHash: hash, Timestamp: at})
	return blockstore.Ref{Segment: PendingSegment, Offset: uint64(len(l.entries) - 1)}
}

func (l *fakeLog) pending(ref blockstore.Ref) (Event, error) {
	l.reads++
	return l.entries[ref.Offset], nil
}

// countingStore counts reads of a Store.
type countingStore struct {
	blockstore.Store
	reads int
}

func (s *countingStore) Read(ref blockstore.Ref) ([]byte, error) {
	s.reads++
	return s.Store.Read(ref)
}

// TestCompleteAppendsOnce: replay completes each logged mutation's event
// once. A crash after the checkpoint's Flush and a backup wrote the first
// events to the medium, and before the log was dropped, leaves replay a log
// whose first events the medium already holds: Complete skips those and
// pends the rest, and the chain is the live one, backed-up event included.
func TestCompleteAppendsOnce(t *testing.T) {
	signer, err := vcrypto.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	store, log := blockstore.NewMemory(0), &fakeLog{}
	open := func() *Tracker {
		t.Helper()
		tr, err := Open(Config{Store: store, Signer: signer, System: "hospital-a", Pending: log.pending})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	h1, h2, h3 := vcrypto.Hash([]byte("v1")), vcrypto.Hash([]byte("v2")), vcrypto.Hash([]byte("v3"))
	at := time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)
	live := open()
	pend := func(typ EventType, hash [32]byte) {
		ts := at.Add(time.Duration(len(log.entries)) * time.Minute)
		live.Pend(log.log(typ, hash, ts), "p1", typ, "dr-jones", hash, ts)
	}
	pend(EventCreated, h1)
	if _, err := live.Record("p1", EventBackedUp, "arch-lee", h1, "tape-1"); err != nil {
		t.Fatal(err)
	}
	pend(EventCorrected, h2)
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	pend(EventCorrected, h3)
	pend(EventShredded, [32]byte{})
	want, err := live.Export("p1")
	if err != nil {
		t.Fatal(err)
	}

	re := open()
	for i, e := range log.entries {
		ref := blockstore.Ref{Segment: PendingSegment, Offset: uint64(i)}
		if err := re.Complete(ref, e.Record, e.Type, e.Actor, e.ContentHash, e.Timestamp); err != nil {
			t.Fatal(err)
		}
	}
	got, err := re.Export("p1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed chain: %d events, equal to the live one: %t; want the live 5", len(got), reflect.DeepEqual(got, want))
	}
	if err := re.Verify("p1", nil); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// TestCompleteOverAnEmptyMediumReadsNothing: replay over a custody store
// that holds none of the logged events reads the store not once, and reads
// the log only when the chain is read back.
func TestCompleteOverAnEmptyMediumReadsNothing(t *testing.T) {
	signer, err := vcrypto.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	store, log := &countingStore{Store: blockstore.NewMemory(0)}, &fakeLog{}
	tr, err := Open(Config{Store: store, Signer: signer, System: "hospital-a", Pending: log.pending})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)
	for i, typ := range []EventType{EventCreated, EventCorrected, EventCorrected, EventShredded} {
		hash := [32]byte{byte(i + 1)}
		if typ == EventShredded {
			hash = [32]byte{}
		}
		ref := log.log(typ, hash, at)
		if err := tr.Complete(ref, "p1", typ, "dr-jones", hash, at); err != nil {
			t.Fatal(err)
		}
	}
	if store.reads != 0 || log.reads != 0 {
		t.Errorf("replay of 4 mutations read the store %d times and the log %d times, want 0 and 0", store.reads, log.reads)
	}
	if chain, err := tr.Chain("p1"); err != nil || len(chain) != 4 || log.reads != 4 {
		t.Errorf("chain: %d events (%v), %d log reads; want 4 events from 4 reads", len(chain), err, log.reads)
	}
}

// TestFlushWritesOnlyWhatEndsInTheHead: an edited log entry breaks the
// pending event's chain, so Chain answers ErrChainBroken and Flush MACs
// nothing; restoring the entry lets Flush write every pending event once,
// in chain order, after which the chain reads the same from the medium.
func TestFlushWritesOnlyWhatEndsInTheHead(t *testing.T) {
	signer, err := vcrypto.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	store, log := blockstore.NewMemory(0), &fakeLog{}
	tr, err := Open(Config{Store: store, Signer: signer, System: "hospital-a", Pending: log.pending})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)
	for i, typ := range []EventType{EventCreated, EventCorrected} {
		hash := [32]byte{byte(i + 1)}
		tr.Pend(log.log(typ, hash, at), "p1", typ, "dr-jones", hash, at)
	}
	want, err := tr.Export("p1")
	if err != nil {
		t.Fatal(err)
	}
	log.entries[0].Actor = "dr-mallory"
	if _, err := tr.Chain("p1"); !errors.Is(err, ErrChainBroken) {
		t.Errorf("chain over an edited entry: %v, want ErrChainBroken", err)
	}
	if err := tr.Flush(); !errors.Is(err, ErrChainBroken) || store.StorageBytes() != 0 {
		t.Errorf("Flush over an edited entry: %v with %d B stored; want ErrChainBroken and nothing", err, store.StorageBytes())
	}
	log.entries[0].Actor = "dr-jones"
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	reads := log.reads
	got, err := tr.Export("p1")
	if err != nil || !reflect.DeepEqual(got, want) || log.reads != reads {
		t.Errorf("chain after Flush: %v, equal: %t, %d log reads; want the pending chain, read from the medium", err, reflect.DeepEqual(got, want), log.reads-reads)
	}
	re, err := Open(Config{Store: store, Signer: signer, System: "hospital-a"})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := re.Export("p1"); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("reopened chain: %v, equal: %t", err, reflect.DeepEqual(got, want))
	}
}

func TestChainsAreIndependentPerRecord(t *testing.T) {
	tr, _ := newTracker(t, "sys", nil)
	for i := 0; i < 3; i++ {
		if _, err := tr.Record("a", EventCreated, "x", [32]byte{}, ""); i == 0 && err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Record("b", EventCreated, "x", [32]byte{}, ""); err != nil {
		t.Fatal(err)
	}
	chainA, _ := tr.Chain("a")
	chainB, _ := tr.Chain("b")
	if len(chainA) != 3 || len(chainB) != 1 {
		t.Errorf("chain lengths: a=%d b=%d", len(chainA), len(chainB))
	}
	if chainB[0].Index != 0 {
		t.Error("record b chain did not start at index 0")
	}
	if n, err := tr.VerifyAll(nil); n != 2 || err != nil {
		t.Errorf("VerifyAll = %d, %v; want 2 chains", n, err)
	}
}

func TestUnknownRecord(t *testing.T) {
	tr, _ := newTracker(t, "sys", nil)
	if _, err := tr.Chain("ghost"); !errors.Is(err, ErrUnknownRecord) {
		t.Errorf("Chain: %v", err)
	}
	if err := tr.Verify("ghost", nil); !errors.Is(err, ErrUnknownRecord) {
		t.Errorf("Verify: %v", err)
	}
}

func TestAdoptMigratedHistory(t *testing.T) {
	source, _ := newTracker(t, "hospital-a", nil)
	h := vcrypto.Hash([]byte("content"))
	if _, err := source.Record("p1", EventCreated, "dr-a", h, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := source.Record("p1", EventMigratedOut, "admin-a", h, "hospital-b"); err != nil {
		t.Fatal(err)
	}
	history, err := source.Export("p1")
	if err != nil {
		t.Fatal(err)
	}

	target, _ := newTracker(t, "hospital-b", nil)
	if err := target.Adopt("p1", history); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	if _, err := target.Record("p1", EventMigratedIn, "admin-b", h, "hospital-a"); err != nil {
		t.Fatal(err)
	}
	if err := target.Verify("p1", nil); err != nil {
		t.Errorf("cross-system chain failed verification: %v", err)
	}
	// The chain names both custodians, in order of custody.
	chain, err := target.Chain("p1")
	if err != nil {
		t.Fatal(err)
	}
	var custodians []string
	for _, e := range chain {
		if !slices.Contains(custodians, e.System) {
			custodians = append(custodians, e.System)
		}
	}
	if !slices.Equal(custodians, []string{"hospital-a", "hospital-b"}) {
		t.Errorf("custodians = %v", custodians)
	}
}

func TestAdoptRejectsTamperedHistory(t *testing.T) {
	source, _ := newTracker(t, "a", nil)
	h := vcrypto.Hash([]byte("x"))
	source.Record("p1", EventCreated, "dr", h, "")
	source.Record("p1", EventCorrected, "dr", h, "")
	history, _ := source.Export("p1")

	// Tamper with the actor of the first event.
	history[0].Actor = "someone-else"
	target, _ := newTracker(t, "b", nil)
	if err := target.Adopt("p1", history); !errors.Is(err, ErrChainBroken) {
		t.Errorf("tampered history adopted: %v", err)
	}

	// Re-hash after tampering: the signature check must now fail.
	history2, _ := source.Export("p1")
	history2[0].Actor = "someone-else"
	history2[0].Hash = eventHash(history2[0])
	history2[1].PrevHash = history2[0].Hash
	history2[1].Hash = eventHash(history2[1])
	target2, _ := newTracker(t, "b", nil)
	if err := target2.Adopt("p1", history2); !errors.Is(err, ErrBadSignature) {
		t.Errorf("re-hashed forged history adopted: %v", err)
	}
}

func TestVerifyTrustedSigners(t *testing.T) {
	tr, signer := newTracker(t, "a", nil)
	tr.Record("p1", EventCreated, "dr", [32]byte{}, "")
	trusted := map[string]bool{signer.Public().String(): true}
	if err := tr.Verify("p1", trusted); err != nil {
		t.Errorf("trusted signer rejected: %v", err)
	}
	other, _ := vcrypto.NewSigner()
	onlyOther := map[string]bool{other.Public().String(): true}
	if err := tr.Verify("p1", onlyOther); !errors.Is(err, ErrBadSignature) {
		t.Errorf("untrusted signer accepted: %v", err)
	}
	// An empty set is not "no restriction": it trusts no signer.
	if err := tr.Verify("p1", map[string]bool{}); !errors.Is(err, ErrBadSignature) {
		t.Errorf("empty trusted set accepted a signer: %v", err)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	store := blockstore.NewMemory(0)
	signer, err := vcrypto.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(Config{Store: store, Signer: signer, System: "sys"})
	if err != nil {
		t.Fatal(err)
	}
	h := vcrypto.Hash([]byte("v"))
	tr.Record("p1", EventCreated, "dr", h, "")
	tr.Record("p1", EventCorrected, "dr", h, "")
	tr.Record("p2", EventCreated, "dr", h, "")

	re, err := Open(Config{Store: store, Signer: signer, System: "sys"})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if n, err := re.VerifyAll(nil); err != nil || n != 2 {
		t.Errorf("VerifyAll after reopen: n=%d err=%v", n, err)
	}
	chain, err := re.Chain("p1")
	if err != nil || len(chain) != 2 {
		t.Fatalf("reopened chain: %d events, %v", len(chain), err)
	}
	// Chain continues correctly after reopen.
	if _, err := re.Record("p1", EventBackedUp, "op", h, ""); err != nil {
		t.Fatal(err)
	}
	if err := re.Verify("p1", nil); err != nil {
		t.Errorf("verify after continued append: %v", err)
	}
}

func TestOpenRejectsTamperedPersistence(t *testing.T) {
	store := blockstore.NewMemory(0)
	signer, _ := vcrypto.NewSigner()
	tr, err := Open(Config{Store: store, Signer: signer, System: "sys"})
	if err != nil {
		t.Fatal(err)
	}
	tr.Record("p1", EventCreated, "dr", [32]byte{}, "")

	// Rebuild a store with the event's actor edited (MAC left stale).
	var payloads [][]byte
	store.Scan(func(_ blockstore.Ref, data []byte) error {
		payloads = append(payloads, append([]byte(nil), data...))
		return nil
	})
	e, err := tr.decode(payloads[0], func(string) (uint64, [32]byte) { return 0, [32]byte{} })
	if err != nil {
		t.Fatal(err)
	}
	e.Actor = "forged"
	evil := blockstore.NewMemory(0)
	evil.Append(tr.encode(e))
	if _, err := Open(Config{Store: evil, Signer: signer, System: "sys"}); !errors.Is(err, ErrChainBroken) {
		t.Errorf("tampered persistence accepted: %v", err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	signer, _ := vcrypto.NewSigner()
	e := Event{
		Record:      "rec-1",
		Index:       7,
		Type:        EventMigratedOut,
		Timestamp:   time.Unix(0, 99).UTC(),
		Actor:       "admin",
		System:      "a",
		Peer:        "b",
		ContentHash: vcrypto.Hash([]byte("c")),
		PrevHash:    vcrypto.Hash([]byte("p")),
		SignerKey:   signer.Public(),
	}
	e.Hash = eventHash(e)
	e.Signature = signer.Sign(e.Hash[:])
	got, err := DecodeEvent(EncodeEvent(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.Record != e.Record || got.Index != e.Index || got.Type != e.Type ||
		!got.Timestamp.Equal(e.Timestamp) || got.Actor != e.Actor ||
		got.System != e.System || got.Peer != e.Peer ||
		got.ContentHash != e.ContentHash || got.Hash != e.Hash ||
		got.SignerKey.String() != e.SignerKey.String() {
		t.Errorf("round trip mismatch: %+v vs %+v", got, e)
	}
	if _, err := DecodeEvent([]byte{1, 2, 3}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage accepted: %v", err)
	}
}

func TestInjectedClock(t *testing.T) {
	store := blockstore.NewMemory(0)
	signer, _ := vcrypto.NewSigner()
	fixed := time.Date(2050, 7, 1, 0, 0, 0, 0, time.UTC)
	tr, err := Open(Config{Store: store, Signer: signer, System: "sys", Now: func() time.Time { return fixed }})
	if err != nil {
		t.Fatal(err)
	}
	e, err := tr.Record("p", EventCreated, "dr", [32]byte{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Timestamp.Equal(fixed) {
		t.Errorf("timestamp = %v, want %v", e.Timestamp, fixed)
	}
}

// TestAdoptIsAllOrNothing: a history rejected at its second event leaves no
// trace of its first, so the corrected history can be adopted afterwards.
func TestAdoptIsAllOrNothing(t *testing.T) {
	source, _ := newTracker(t, "a", nil)
	h := vcrypto.Hash([]byte("x"))
	source.Record("p1", EventCreated, "dr", h, "")
	source.Record("p1", EventCorrected, "dr", h, "")
	history, err := source.Export("p1")
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]Event(nil), history...)
	forged[1].Actor = "someone-else"

	store := blockstore.NewMemory(0)
	target, _ := newTracker(t, "b", store)
	if err := target.Adopt("p1", forged); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("Adopt(e0, forged e1) = %v, want ErrChainBroken", err)
	}
	if _, err := target.Chain("p1"); !errors.Is(err, ErrUnknownRecord) {
		t.Errorf("Chain after a rejected Adopt = %v, want ErrUnknownRecord", err)
	}
	n := 0
	if err := store.Scan(func(blockstore.Ref, []byte) error { n++; return nil }); err != nil || n != 0 {
		t.Errorf("a rejected Adopt left %d events on the medium (%v)", n, err)
	}
	if err := target.Adopt("p1", history); err != nil {
		t.Fatalf("Adopt of the corrected history: %v", err)
	}
	if err := target.Verify("p1", nil); err != nil {
		t.Errorf("Verify after Adopt: %v", err)
	}
}

// encodeV2 is the stored layout trackers wrote before custody MACs (v2): the
// signer key left out when it is the tracker's own, the signature always
// stored. The package only reads it now; tests write mediums that hold it.
func encodeV2(e Event, own vcrypto.PublicKey) []byte {
	b := []byte{storedV2}
	b = frame.AppendToken(b, e.Record)
	b = frame.AppendWord(b, string(e.Type), typeWords)
	b = frame.AppendTime(b, e.Timestamp)
	b = frame.AppendToken(b, e.Actor)
	b = frame.AppendToken(b, e.System)
	b = frame.AppendToken(b, e.Peer)
	b = append(b, e.ContentHash[:]...)
	key := e.SignerKey
	if bytes.Equal(key, own) {
		key = nil
	}
	b = frame.AppendVarBytes(b, key)
	return frame.AppendVarBytes(b, e.Signature)
}

// forgeV3 is e in the v3 layout, MACed under a key that is not the tracker's:
// what an insider without the signing seed can write on its medium.
func forgeV3(tr *Tracker, e Event) []byte {
	return sealStored(encodeStored(e, tr.signer.Public()), vcrypto.NewKeyedMAC(vcrypto.Key{0x1d}), e.Hash)
}

// TestRechainedForgeryIsAnError: an insider with write access to the medium
// but not the signing seed rewrites a running tracker's chain under valid
// frame CRCs, with every event hash recomputed so the rewritten chain links.
// Reading it is an error, not the forged history. On a v3 medium the
// rewritten events fail their MACs; on a v2 medium, whose signatures Chain
// leaves to Verify, the chain no longer ends in the head the tracker
// authenticated.
func TestRechainedForgeryIsAnError(t *testing.T) {
	v2 := func(tr *Tracker, e Event) []byte { return encodeV2(e, tr.signer.Public()) }
	for _, c := range []struct {
		layout          string
		genuine, forged func(*Tracker, Event) []byte
	}{
		{"v3", (*Tracker).encode, forgeV3},
		{"v2", v2, v2},
	} {
		t.Run(c.layout, func(t *testing.T) {
			tr, signer := newTracker(t, "sys", nil)
			h := vcrypto.Hash([]byte("v"))
			tr.Record("p1", EventCreated, "dr", h, "")
			tr.Record("p1", EventCorrected, "dr", h, "")
			events, err := tr.Export("p1")
			if err != nil {
				t.Fatal(err)
			}
			store := blockstore.NewMemory(0)
			var refs []blockstore.Ref
			for _, e := range events {
				ref, err := store.Append(c.genuine(tr, e))
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, ref)
			}
			victim, err := Open(Config{Store: store, Signer: signer, System: "sys"})
			if err != nil {
				t.Fatal(err)
			}

			events[0].Actor = "xx" // same length: an in-place edit
			events[0].Hash = eventHash(events[0])
			events[1].PrevHash = events[0].Hash
			events[1].Hash = eventHash(events[1])
			for i, e := range events {
				if err := store.CorruptFrame(refs[i], func([]byte) []byte { return c.forged(victim, e) }); err != nil {
					t.Fatal(err)
				}
			}

			if chain, err := victim.Chain("p1"); !errors.Is(err, ErrChainBroken) || chain != nil {
				t.Errorf("Chain over a re-chained forgery: %d events, %v; want none, ErrChainBroken", len(chain), err)
			}
			if err := victim.Verify("p1", nil); !errors.Is(err, ErrChainBroken) {
				t.Errorf("Verify over a re-chained forgery: %v, want ErrChainBroken", err)
			}
			if _, err := victim.Chain("p1"); c.layout == "v3" && !errors.Is(err, ErrBadMAC) {
				t.Errorf("a re-chained v3 event: %v, want ErrBadMAC", err)
			}
		})
	}
}

// TestForeignSignerRewriteFailsOpen: an insider who can write the medium but
// lacks the signing seed rewrites a chain under a fresh key of their own, in
// the foreign-signer form an adopted history takes: the events edited,
// re-hashed, re-linked and validly signed by that key. A v2 medium so
// rewritten opened, since a foreign signature is checked only against its own
// key, and passed VerifyAll(nil). Every v3 event carries the tracker's MAC,
// which the insider cannot make, so the rewrite fails Open.
func TestForeignSignerRewriteFailsOpen(t *testing.T) {
	tr, signer := newTracker(t, "sys", nil)
	h := vcrypto.Hash([]byte("v"))
	tr.Record("p1", EventCreated, "dr", h, "")
	tr.Record("p1", EventCorrected, "dr", h, "")
	events, err := tr.Export("p1")
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := vcrypto.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	forged := blockstore.NewMemory(0)
	var prev [32]byte
	for _, e := range events {
		e.Actor, e.PrevHash = "mallory", prev
		e.Hash = eventHash(e)
		e.SignerKey, e.Signature = mallory.Public(), mallory.Sign(e.Hash[:])
		prev = e.Hash
		if _, err := forged.Append(forgeV3(tr, e)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(Config{Store: forged, Signer: signer, System: "sys"}); !errors.Is(err, ErrChainBroken) || !errors.Is(err, ErrBadMAC) {
		t.Errorf("Open over a chain rewritten under a fresh key: %v, want ErrChainBroken and ErrBadMAC", err)
	}
}

// rewritten is a custody medium on which an insider has replaced the event at
// ref with payload, of any length; while ref is nil it reads as written.
type rewritten struct {
	blockstore.Store
	ref     *blockstore.Ref
	payload []byte
}

func (m *rewritten) Read(ref blockstore.Ref) ([]byte, error) {
	if m.ref != nil && ref == *m.ref {
		return append([]byte(nil), m.payload...), nil
	}
	return m.Store.Read(ref)
}

func (m *rewritten) Scan(fn func(blockstore.Ref, []byte) error) error {
	return m.Store.Scan(func(ref blockstore.Ref, data []byte) error {
		if m.ref != nil && ref == *m.ref {
			data = m.payload
		}
		return fn(ref, data)
	})
}

// TestStoredSignerRewriteFailsMAC: a v3 event's MAC covers its signer fields
// as stored, so an insider cannot move an event between the tracker's own form
// and the foreign-signer form, even leaving its content, hash and MAC as they
// were. Stripping an adopted event's key and signature would otherwise make it
// the vault's own, for Export to sign; giving the vault's own event a fresh
// key and a valid signature under it would otherwise change its signer. Both
// rewrites fail a running tracker's Chain, Export and VerifyAll, and a reopen,
// with ErrBadMAC.
func TestStoredSignerRewriteFailsMAC(t *testing.T) {
	source, _ := newTracker(t, "hospital-a", nil)
	h := vcrypto.Hash([]byte("content"))
	if _, err := source.Record("p1", EventCreated, "dr-a", h, ""); err != nil {
		t.Fatal(err)
	}
	history, err := source.Export("p1")
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := vcrypto.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		at      int // the rewritten event: 0 is adopted, 1 the target's own
		rewrite func(e Event, own vcrypto.PublicKey) Event
	}{
		{"foreign signer stripped", 0, func(e Event, own vcrypto.PublicKey) Event {
			e.SignerKey, e.Signature = own, nil
			return e
		}},
		{"own event given a foreign signer", 1, func(e Event, _ vcrypto.PublicKey) Event {
			e.SignerKey, e.Signature = mallory.Public(), mallory.Sign(e.Hash[:])
			return e
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			medium := &rewritten{Store: blockstore.NewMemory(0)}
			target, signer := newTracker(t, "hospital-b", medium)
			if err := target.Adopt("p1", history); err != nil {
				t.Fatal(err)
			}
			if _, err := target.Record("p1", EventMigratedIn, "admin-b", h, "hospital-a"); err != nil {
				t.Fatal(err)
			}
			chain, err := target.Chain("p1")
			if err != nil {
				t.Fatal(err)
			}
			var ref blockstore.Ref
			var genuine []byte
			i := 0
			medium.Scan(func(r blockstore.Ref, data []byte) error {
				if i == c.at {
					ref, genuine = r, append([]byte(nil), data...)
				}
				i++
				return nil
			})
			forged := encodeStored(c.rewrite(chain[c.at], signer.Public()), signer.Public())
			copy(forged[1:1+macSize], genuine[1:1+macSize]) // the genuine event's MAC
			medium.ref, medium.payload = &ref, forged

			if _, err := target.Chain("p1"); !errors.Is(err, ErrBadMAC) {
				t.Errorf("Chain: %v, want ErrBadMAC", err)
			}
			if _, err := target.Export("p1"); !errors.Is(err, ErrBadMAC) {
				t.Errorf("Export: %v, want ErrBadMAC", err)
			}
			if _, err := target.VerifyAll(nil); !errors.Is(err, ErrBadMAC) {
				t.Errorf("VerifyAll: %v, want ErrBadMAC", err)
			}
			if _, err := Open(Config{Store: medium, Signer: signer, System: "hospital-b"}); !errors.Is(err, ErrBadMAC) {
				t.Errorf("Open: %v, want ErrBadMAC", err)
			}
		})
	}
}

// TestStoredEventByteEditIsCaught: one flipped byte anywhere in a stored v3
// event, under a valid frame CRC, fails a running tracker's VerifyAll and a
// reopen of the medium.
func TestStoredEventByteEditIsCaught(t *testing.T) {
	store := blockstore.NewMemory(0)
	tr, signer := newTracker(t, "sys", store)
	if _, err := tr.Record("p1", EventCreated, "dr-house", vcrypto.Hash([]byte("v")), ""); err != nil {
		t.Fatal(err)
	}
	var ref blockstore.Ref
	var size int
	store.Scan(func(r blockstore.Ref, data []byte) error {
		ref, size = r, len(data)
		return nil
	})
	flip := func(i int) {
		t.Helper()
		if err := store.CorruptFrame(ref, func(b []byte) []byte { b[i] ^= 1; return b }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < size; i++ {
		flip(i)
		if _, err := tr.VerifyAll(nil); !errors.Is(err, ErrChainBroken) {
			t.Errorf("byte %d of %d flipped: VerifyAll = %v, want ErrChainBroken", i, size, err)
		}
		if _, err := Open(Config{Store: store, Signer: signer, System: "sys"}); !errors.Is(err, ErrChainBroken) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("byte %d of %d flipped: Open = %v, want ErrChainBroken or ErrCorrupt", i, size, err)
		}
		flip(i)
	}
	if _, err := tr.VerifyAll(nil); err != nil {
		t.Fatalf("the restored medium: %v", err)
	}
}

// TestLegacyMediumStillOpens: a custody medium an older binary wrote holds
// events in the transfer layout, Index, PrevHash, Hash and signer key
// included. It opens, its chains read and verify, new events follow in the
// stored layout, and a legacy event whose stored place disagrees with its
// chain breaks it.
func TestLegacyMediumStillOpens(t *testing.T) {
	tr, signer := newTracker(t, "sys", nil)
	h := vcrypto.Hash([]byte("v"))
	tr.Record("p1", EventCreated, "dr", h, "")
	tr.Record("p2", EventCreated, "dr", h, "")
	tr.Record("p1", EventCorrected, "dr", h, "")
	p1, err := tr.Export("p1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tr.Export("p2")
	if err != nil {
		t.Fatal(err)
	}
	legacy := func(events ...Event) *blockstore.File {
		store := blockstore.NewMemory(0)
		for _, e := range events {
			if _, err := store.Append(EncodeEvent(e)); err != nil {
				t.Fatal(err)
			}
		}
		return store
	}

	re, err := Open(Config{Store: legacy(p1[0], p2[0], p1[1]), Signer: signer, System: "sys"})
	if err != nil {
		t.Fatalf("open over a legacy medium: %v", err)
	}
	if n, err := re.VerifyAll(nil); err != nil || n != 2 {
		t.Fatalf("VerifyAll over a legacy medium: %d, %v", n, err)
	}
	if got, err := re.Chain("p1"); err != nil || !reflect.DeepEqual(got, p1) {
		t.Fatalf("legacy chain reads back as %+v, %v", got, err)
	}
	if _, err := re.Record("p1", EventBackedUp, "op", h, ""); err != nil {
		t.Fatal(err)
	}
	if err := re.Verify("p1", nil); err != nil {
		t.Fatalf("Verify after a stored-layout event follows legacy ones: %v", err)
	}

	misplaced := p1[1]
	misplaced.Index = 5
	if _, err := Open(Config{Store: legacy(p1[0], misplaced), Signer: signer, System: "sys"}); !errors.Is(err, ErrChainBroken) {
		t.Errorf("legacy event with a wrong stored index: %v, want ErrChainBroken", err)
	}
}

// TestMixedLayoutMediumOpens: one medium holds chains written in all three
// layouts a tracker has used — transfer (v1), v2 and v3 — as a vault upgraded
// twice would. It opens with one Ed25519 verify per legacy event and none per
// v3 event, reads back and exports as the chains that were recorded, takes
// new events, and verifies. A legacy event's stored signature is still
// checked at Open.
func TestMixedLayoutMediumOpens(t *testing.T) {
	tr, signer := newTracker(t, "sys", nil)
	own := signer.Public()
	h := vcrypto.Hash([]byte("v"))
	for _, typ := range []EventType{EventCreated, EventCorrected, EventBackedUp} {
		if _, err := tr.Record("p1", typ, "dr", h, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Record("p2", EventCreated, "dr", h, ""); err != nil {
		t.Fatal(err)
	}
	p1, err := tr.Export("p1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tr.Export("p2")
	if err != nil {
		t.Fatal(err)
	}
	medium := func(payloads ...[]byte) *blockstore.File {
		store := blockstore.NewMemory(0)
		for _, b := range payloads {
			if _, err := store.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		return store
	}
	verifies := func() uint64 {
		return obs.Default.Counter("medvault_crypto_ed25519_total", "", obs.L("op", "verify")).Value()
	}

	before := verifies()
	re, err := Open(Config{Store: medium(EncodeEvent(p1[0]), encodeV2(p2[0], own), encodeV2(p1[1], own), tr.encode(p1[2])),
		Signer: signer, System: "sys"})
	if err != nil {
		t.Fatalf("open over a v1+v2+v3 medium: %v", err)
	}
	if n := verifies() - before; n != 3 {
		t.Errorf("Open verified %d signatures, want 3: one per legacy event, none per v3 event", n)
	}
	if n, err := re.VerifyAll(nil); err != nil || n != 2 {
		t.Fatalf("VerifyAll over a mixed medium: %d, %v", n, err)
	}
	if got, err := re.Export("p1"); err != nil || !reflect.DeepEqual(got, p1) {
		t.Fatalf("mixed chain exports as %+v, %v; want %+v", got, err, p1)
	}
	if chain, err := re.Chain("p1"); err != nil || chain[1].Signature == nil || chain[2].Signature != nil {
		t.Fatalf("mixed chain reads back as %+v, %v; want the v2 event signed and the v3 one not", chain, err)
	}
	if _, err := re.Record("p1", EventShredded, "op", [32]byte{}, ""); err != nil {
		t.Fatal(err)
	}
	if err := re.Verify("p1", map[string]bool{own.String(): true}); err != nil {
		t.Errorf("Verify after a v3 event follows legacy ones: %v", err)
	}

	forged := p1[1]
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[0] ^= 1
	if _, err := Open(Config{Store: medium(EncodeEvent(p1[0]), encodeV2(forged, own)), Signer: signer, System: "sys"}); !errors.Is(err, ErrChainBroken) || !errors.Is(err, ErrBadSignature) {
		t.Errorf("a v2 event with a bad stored signature: %v, want ErrChainBroken and ErrBadSignature", err)
	}
}

// TestStoredLayoutKeepsForeignSigners: the stored layout leaves out only the
// tracker's own key. An adopted event keeps its custodian's key across a
// reopen, so the trusted-signer rule still tells custodians apart.
func TestStoredLayoutKeepsForeignSigners(t *testing.T) {
	source, sourceSigner := newTracker(t, "hospital-a", nil)
	h := vcrypto.Hash([]byte("content"))
	if _, err := source.Record("p1", EventCreated, "dr-a", h, ""); err != nil {
		t.Fatal(err)
	}
	history, err := source.Export("p1")
	if err != nil {
		t.Fatal(err)
	}
	store := blockstore.NewMemory(0)
	target, targetSigner := newTracker(t, "hospital-b", store)
	if err := target.Adopt("p1", history); err != nil {
		t.Fatal(err)
	}
	if _, err := target.Record("p1", EventMigratedIn, "admin-b", h, "hospital-a"); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Store: store, Signer: targetSigner, System: "hospital-b"})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := re.Chain("p1")
	if err != nil {
		t.Fatal(err)
	}
	if chain[0].SignerKey.String() != sourceSigner.Public().String() || chain[1].SignerKey.String() != targetSigner.Public().String() {
		t.Fatalf("signers after reopen: %s, %s", chain[0].SignerKey, chain[1].SignerKey)
	}
	both := map[string]bool{sourceSigner.Public().String(): true, targetSigner.Public().String(): true}
	if err := re.Verify("p1", both); err != nil {
		t.Errorf("Verify with both custodians trusted: %v", err)
	}
	if err := re.Verify("p1", map[string]bool{targetSigner.Public().String(): true}); !errors.Is(err, ErrBadSignature) {
		t.Errorf("Verify trusting only the target: %v, want ErrBadSignature", err)
	}
}

// TestCustodyStoredBytesPerEvent is the budget for what one custody event
// costs the medium, frame included, for the events a vault records: a
// create by a clinician, MACed by the vault itself. The transfer layout,
// which the medium held first, cost 294 B here, and stored v2, whose events
// carried a signature, 161 B.
func TestCustodyStoredBytesPerEvent(t *testing.T) {
	const events, budget = 1000, 136
	store := blockstore.NewMemory(0)
	tr, _ := newTracker(t, "medvault-test", store)
	for i := 0; i < events; i++ {
		if _, err := tr.Record(fmt.Sprintf("w0-mrn-%06d-enc-0", i), EventCreated, "dr-house", vcrypto.Hash([]byte{byte(i)}), ""); err != nil {
			t.Fatal(err)
		}
	}
	per := float64(store.StorageBytes()) / events
	t.Logf("stored: %.1f B/event", per)
	if per > budget {
		t.Errorf("a custody event costs the medium %.1f B, budget is %d", per, budget)
	}
}

// TestCustodyResidentBytesPerEvent is the budget the tracker's RAM must stay
// inside: it keeps a ref per event and a head per record, never the event.
func TestCustodyResidentBytesPerEvent(t *testing.T) {
	// heap is the least heap in use over three readings, each after two
	// collections: another goroutine's live bytes can land in one reading,
	// while the structure under test is live in all three.
	heap := func() uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			least = min(least, ms.HeapAlloc)
		}
		return least
	}
	types := []EventType{EventCreated, EventCorrected, EventBackedUp, EventCorrected, EventShredded}
	for _, tc := range []struct {
		records, perRecord int
		budget             float64
	}{
		{10_000, 5, 64},
		{40_000, 1, 160},
	} {
		store, err := blockstore.OpenFile(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		before := heap()
		tr, _ := newTracker(t, "sys", store)
		for j := 0; j < tc.perRecord; j++ {
			for i := 0; i < tc.records; i++ {
				id := fmt.Sprintf("w0-mrn-%06d-enc-%d", i/4, i%4)
				if _, err := tr.Record(id, types[j], "dr-house", [32]byte{byte(i)}, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
		grown := int64(heap()) - int64(before)
		runtime.KeepAlive(tr)
		events := tc.records * tc.perRecord
		per := float64(grown) / float64(events)
		t.Logf("%d records × %d events: %.1f B/event resident", tc.records, tc.perRecord, per)
		if per > tc.budget {
			t.Errorf("%d records × %d events: tracker keeps %.1f B/event resident, budget is %.0f", tc.records, tc.perRecord, per, tc.budget)
		}
		store.Close()
	}
}

// TestConcurrentRecordChainVerify is for the race detector: readers snapshot
// a chain's refs under the tracker lock and read the medium outside it while
// writers extend the same chains.
func TestConcurrentRecordChainVerify(t *testing.T) {
	tr, _ := newTracker(t, "sys", blockstore.NewMemory(8<<10))
	const writers, events = 2, 100
	ids := []string{"rec-0", "rec-1", "rec-2"}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				if _, err := tr.Record(ids[(w+i)%len(ids)], EventCorrected, fmt.Sprintf("dr-%d", w), [32]byte{}, ""); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for _, id := range ids {
		readers.Add(1)
		go func(id string) {
			defer readers.Done()
			for {
				chain, err := tr.Chain(id)
				if err != nil && !errors.Is(err, ErrUnknownRecord) {
					t.Errorf("Chain(%s): %v", id, err)
					return
				}
				for i, e := range chain {
					if e.Index != uint64(i) {
						t.Errorf("Chain(%s): index %d at position %d", id, e.Index, i)
						return
					}
				}
				if err == nil {
					if err := tr.Verify(id, nil); err != nil {
						t.Errorf("Verify(%s): %v", id, err)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(id)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if n, err := tr.VerifyAll(nil); err != nil || n != len(ids) {
		t.Errorf("final VerifyAll: %d, %v; want %d, nil", n, err, len(ids))
	}
}

// TestConcurrentPendFlushChain is for the race detector: while each writer
// pends its own record's mutations and records backups, which write the
// record's pending events first, and a flusher writes every pending event,
// readers read chains that mix pending and written events.
func TestConcurrentPendFlushChain(t *testing.T) {
	signer, err := vcrypto.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	// The whole log is written up front, so reading it takes no lock that
	// would order a reader's ref reads before a flush's rewrite of them.
	const mutations = 100
	log := &fakeLog{}
	at := time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)
	ids := []string{"rec-0", "rec-1"}
	for w, id := range ids {
		for i := 0; i < mutations; i++ {
			log.logOf(id, EventCorrected, [32]byte{byte(w), byte(i)}, at)
		}
	}
	tr, err := Open(Config{Store: blockstore.NewMemory(8 << 10), Signer: signer, System: "sys",
		Pending: func(ref blockstore.Ref) (Event, error) { return log.entries[ref.Offset], nil }})
	if err != nil {
		t.Fatal(err)
	}
	var writers sync.WaitGroup
	for w, id := range ids {
		writers.Add(1)
		go func(w int, id string) {
			defer writers.Done()
			for i := 0; i < mutations; i++ {
				ref := blockstore.Ref{Segment: PendingSegment, Offset: uint64(w*mutations + i)}
				tr.Pend(ref, id, EventCorrected, "dr-jones", [32]byte{byte(w), byte(i)}, at)
				if i%3 == 2 {
					if _, err := tr.Record(id, EventBackedUp, "arch-lee", [32]byte{}, "tape-1"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w, id)
	}
	done := make(chan struct{})
	var others sync.WaitGroup
	others.Add(1)
	go func() {
		defer others.Done()
		for {
			if err := tr.Flush(); err != nil {
				t.Errorf("Flush: %v", err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for _, id := range ids {
		others.Add(1)
		go func(id string) {
			defer others.Done()
			for {
				chain, err := tr.Chain(id)
				if err != nil && !errors.Is(err, ErrUnknownRecord) {
					t.Errorf("Chain(%s): %v", id, err)
					return
				}
				for i, e := range chain {
					if e.Index != uint64(i) {
						t.Errorf("Chain(%s): index %d at position %d", id, e.Index, i)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(id)
	}
	writers.Wait()
	close(done)
	others.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, err := tr.VerifyAll(nil); err != nil || n != len(ids) {
		t.Errorf("final VerifyAll: %d, %v; want %d, nil", n, err, len(ids))
	}
}
