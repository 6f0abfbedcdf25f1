package provenance

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"medvault/internal/blockstore"
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
	if _, err := tr.Custodians("ghost"); !errors.Is(err, ErrUnknownRecord) {
		t.Errorf("Custodians: %v", err)
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
	history, err := source.Chain("p1")
	if err != nil {
		t.Fatal(err)
	}

	target, _ := newTracker(t, "hospital-b", nil)
	if err := target.Adopt(history); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	if _, err := target.Record("p1", EventMigratedIn, "admin-b", h, "hospital-a"); err != nil {
		t.Fatal(err)
	}
	if err := target.Verify("p1", nil); err != nil {
		t.Errorf("cross-system chain failed verification: %v", err)
	}
	custodians, err := target.Custodians("p1")
	if err != nil {
		t.Fatal(err)
	}
	if len(custodians) != 2 || custodians[0] != "hospital-a" || custodians[1] != "hospital-b" {
		t.Errorf("custodians = %v", custodians)
	}
}

func TestAdoptRejectsTamperedHistory(t *testing.T) {
	source, _ := newTracker(t, "a", nil)
	h := vcrypto.Hash([]byte("x"))
	source.Record("p1", EventCreated, "dr", h, "")
	source.Record("p1", EventCorrected, "dr", h, "")
	history, _ := source.Chain("p1")

	// Tamper with the actor of the first event.
	history[0].Actor = "someone-else"
	target, _ := newTracker(t, "b", nil)
	if err := target.Adopt(history); !errors.Is(err, ErrChainBroken) {
		t.Errorf("tampered history adopted: %v", err)
	}

	// Re-hash after tampering: the signature check must now fail.
	history2, _ := source.Chain("p1")
	history2[0].Actor = "someone-else"
	history2[0].Hash = eventHash(history2[0])
	history2[1].PrevHash = history2[0].Hash
	history2[1].Hash = eventHash(history2[1])
	target2, _ := newTracker(t, "b", nil)
	if err := target2.Adopt(history2); !errors.Is(err, ErrBadSignature) {
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

	// Rebuild a store with the event's actor edited (signature left stale).
	var payloads [][]byte
	store.Scan(func(_ blockstore.Ref, data []byte) error {
		payloads = append(payloads, append([]byte(nil), data...))
		return nil
	})
	e, err := decodeStored(payloads[0], signer.Public(), func(string) (uint64, [32]byte) { return 0, [32]byte{} })
	if err != nil {
		t.Fatal(err)
	}
	e.Actor = "forged"
	evil := blockstore.NewMemory(0)
	evil.Append(encodeStored(e, signer.Public()))
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
	history, err := source.Chain("p1")
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]Event(nil), history...)
	forged[1].Actor = "someone-else"

	store := blockstore.NewMemory(0)
	target, _ := newTracker(t, "b", store)
	if err := target.Adopt(forged); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("Adopt(e0, forged e1) = %v, want ErrChainBroken", err)
	}
	if _, err := target.Chain("p1"); !errors.Is(err, ErrUnknownRecord) {
		t.Errorf("Chain after a rejected Adopt = %v, want ErrUnknownRecord", err)
	}
	if n := store.Len(); n != 0 {
		t.Errorf("a rejected Adopt left %d events on the medium", n)
	}
	if err := target.Adopt(history); err != nil {
		t.Fatalf("Adopt of the corrected history: %v", err)
	}
	if err := target.Verify("p1", nil); err != nil {
		t.Errorf("Verify after Adopt: %v", err)
	}
}

// TestRechainedForgeryIsAnError: an insider with write access to the medium
// but not the signing key rewrites a chain's events under valid frame CRCs,
// with every event hash recomputed so the rewritten chain links. The chain no
// longer ends in the head the tracker signed, so reading it is an error —
// not the forged history.
func TestRechainedForgeryIsAnError(t *testing.T) {
	store := blockstore.NewMemory(0)
	tr, signer := newTracker(t, "sys", store)
	h := vcrypto.Hash([]byte("v"))
	tr.Record("p1", EventCreated, "dr", h, "")
	tr.Record("p1", EventCorrected, "dr", h, "")

	var refs []blockstore.Ref
	var events []Event
	store.Scan(func(ref blockstore.Ref, data []byte) error {
		e, err := decodeStored(data, signer.Public(), func(string) (uint64, [32]byte) {
			if len(events) == 0 {
				return 0, [32]byte{}
			}
			return uint64(len(events)), events[len(events)-1].Hash
		})
		refs, events = append(refs, ref), append(events, e)
		return err
	})
	events[0].Actor = "xx" // same length: an in-place edit
	events[0].Hash = eventHash(events[0])
	events[1].PrevHash = events[0].Hash
	events[1].Hash = eventHash(events[1])
	for i, e := range events {
		if err := store.CorruptFrame(refs[i], func([]byte) []byte { return encodeStored(e, signer.Public()) }); err != nil {
			t.Fatal(err)
		}
	}

	if chain, err := tr.Chain("p1"); !errors.Is(err, ErrChainBroken) || chain != nil {
		t.Errorf("Chain over a re-chained forgery: %d events, %v; want none, ErrChainBroken", len(chain), err)
	}
	if err := tr.Verify("p1", nil); !errors.Is(err, ErrChainBroken) {
		t.Errorf("Verify over a re-chained forgery: %v, want ErrChainBroken", err)
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
	p1, err := tr.Chain("p1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tr.Chain("p2")
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

// TestStoredLayoutKeepsForeignSigners: the stored layout leaves out only the
// tracker's own key. An adopted event keeps its custodian's key across a
// reopen, so the trusted-signer rule still tells custodians apart.
func TestStoredLayoutKeepsForeignSigners(t *testing.T) {
	source, sourceSigner := newTracker(t, "hospital-a", nil)
	h := vcrypto.Hash([]byte("content"))
	if _, err := source.Record("p1", EventCreated, "dr-a", h, ""); err != nil {
		t.Fatal(err)
	}
	history, err := source.Chain("p1")
	if err != nil {
		t.Fatal(err)
	}
	store := blockstore.NewMemory(0)
	target, targetSigner := newTracker(t, "hospital-b", store)
	if err := target.Adopt(history); err != nil {
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
// create by a clinician, signed by the vault itself. The transfer layout,
// which the medium held before, cost 294 B here.
func TestCustodyStoredBytesPerEvent(t *testing.T) {
	const events, budget = 1000, 176
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
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
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
