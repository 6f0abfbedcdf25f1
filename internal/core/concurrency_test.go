package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"medvault/internal/ehr"
)

// stressRecord builds a minimal valid clinical record with the given ID.
func stressRecord(id string) ehr.Record {
	return ehr.Record{
		ID: id, Patient: "Interleave Patient", MRN: "mrn-" + id,
		Category: ehr.CategoryClinical, Author: "dr-house", CreatedAt: testEpoch,
		Title: "note", Body: "interleaving probe " + id,
	}
}

// TestCrossRecordPutsDoNotSerialize pins the core claim of the striped lock
// manager: a Put only waits on its own record's stripe. The test seizes one
// stripe directly, proves a Put hashing to a different stripe completes
// anyway, and proves a Put hashing to the seized stripe blocks until release.
func TestCrossRecordPutsDoNotSerialize(t *testing.T) {
	v, _ := newVault(t)

	const idA = "stripe-anchor"
	sA := stripeIndex(idA)
	var otherStripe, sameStripe string
	for i := 0; otherStripe == "" || sameStripe == ""; i++ {
		cand := fmt.Sprintf("stripe-probe-%d", i)
		switch {
		case stripeIndex(cand) != sA && otherStripe == "":
			otherStripe = cand
		case stripeIndex(cand) == sA && sameStripe == "":
			sameStripe = cand
		}
	}

	mu := v.Shard(0).stripes.forRecord(idA)
	mu.Lock()

	// A writer on a different stripe commutes with the held one.
	done := make(chan error, 1)
	go func() {
		_, err := v.PutCtx(context.Background(), "dr-house", stressRecord(otherStripe))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Put on different stripe: %v", err)
		}
	case <-time.After(10 * time.Second):
		mu.Unlock()
		t.Fatal("Put to a record on a different stripe blocked behind an unrelated stripe lock")
	}

	// A writer on the held stripe must wait for it.
	blocked := make(chan error, 1)
	go func() {
		_, err := v.PutCtx(context.Background(), "dr-house", stressRecord(sameStripe))
		blocked <- err
	}()
	select {
	case <-blocked:
		mu.Unlock()
		t.Fatal("Put acquired a stripe that was held exclusively")
	case <-time.After(100 * time.Millisecond):
	}
	mu.Unlock()
	if err := <-blocked; err != nil {
		t.Fatalf("Put after stripe release: %v", err)
	}
}

// TestCloseDrainsInflightOps is the regression test for the checkOpen TOCTOU:
// the old implementation read the closed flag under an RLock it released
// before operating, so Close could tear the stores out from under an
// in-flight Put or Get, which then failed with a spurious ErrTampered (the
// blockstore had been closed mid-read). Under the op gate, every racing
// operation either completes fully against an open vault or fails fast with
// ErrClosed — nothing in between — and everything that succeeded is durable
// and verifiable after reopen.
func TestCloseDrainsInflightOps(t *testing.T) {
	master := mustKey(t)
	dir := t.TempDir()
	v, err := Open(Config{Name: "close-race", Master: master, Clock: mustClock(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	registerStaff(t, v)

	const workers = 8
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		committed []string
	)
	errc := make(chan error, workers*64)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				id := fmt.Sprintf("close-race-w%d-%d", w, i)
				_, err := v.PutCtx(context.Background(), "dr-house", stressRecord(id))
				switch {
				case err == nil:
					mu.Lock()
					committed = append(committed, id)
					mu.Unlock()
				case errors.Is(err, ErrClosed):
					return
				default:
					errc <- fmt.Errorf("Put %s racing Close: %v", id, err)
					return
				}
				if _, _, err := v.GetCtx(context.Background(), "dr-house", id); err != nil {
					// The Put above succeeded, so the only legitimate failure
					// is the vault having closed in between — never a
					// tampering report from a half-released store.
					if !errors.Is(err, ErrClosed) {
						errc <- fmt.Errorf("Get %s racing Close: %v", id, err)
					}
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	if err := v.Close(); err != nil {
		t.Fatalf("Close with in-flight ops: %v", err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if len(committed) == 0 {
		t.Skip("Close won the race before any Put committed; nothing to verify")
	}

	// Every Put that reported success must have survived the close.
	v2, err := Open(Config{Name: "close-race", Master: master, Clock: mustClock(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	registerStaff(t, v2)
	if got := v2.Len(); got != len(committed) {
		t.Errorf("reopened Len = %d, want %d committed records", got, len(committed))
	}
	for _, id := range committed {
		if _, _, err := v2.GetCtx(context.Background(), "dr-house", id); err != nil {
			t.Errorf("record %s committed before Close but unreadable after reopen: %v", id, err)
		}
	}
	if _, err := v2.VerifyAll(nil, nil); err != nil {
		t.Errorf("VerifyAll after close race: %v", err)
	}
}

// TestClosedVaultFailsFast: every gated operation reports ErrClosed once
// Close has run.
func TestClosedVaultFailsFast(t *testing.T) {
	v, _ := newVault(t)
	rec := stressRecord("closed-vault-probe")
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", stressRecord("after-close")); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
	if _, _, err := v.GetCtx(context.Background(), "dr-house", rec.ID); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}
	if _, err := v.SearchCtx(context.Background(), "dr-house", "probe"); !errors.Is(err, ErrClosed) {
		t.Errorf("Search after Close = %v, want ErrClosed", err)
	}
	if err := v.ShredCtx(context.Background(), "arch-lee", rec.ID); !errors.Is(err, ErrClosed) {
		t.Errorf("Shred after Close = %v, want ErrClosed", err)
	}
	if _, err := v.VerifyAll(nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("VerifyAll after Close = %v, want ErrClosed", err)
	}
	if _, _, err := v.SanitizeMedia("arch-lee"); !errors.Is(err, ErrClosed) {
		t.Errorf("SanitizeMedia after Close = %v, want ErrClosed", err)
	}
}

// TestConcurrentVaultOperations hammers one vault from many goroutines and
// then checks full integrity: no lost versions, no broken chains.
func TestConcurrentVaultOperations(t *testing.T) {
	v, _ := newVault(t)
	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	errs := make(chan error, writers*4)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := ehr.Record{
					ID:       fmt.Sprintf("w%d/rec-%d", w, i),
					MRN:      fmt.Sprintf("mrn-w%d", w),
					Patient:  "Concurrent Patient",
					Category: ehr.CategoryClinical,
					Author:   "dr-house", CreatedAt: testEpoch,
					Title: "t", Body: fmt.Sprintf("note %d from writer %d with hypertension", i, w),
				}
				if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
					errs <- fmt.Errorf("put w%d/%d: %w", w, i, err)
					return
				}
				if _, _, err := v.GetCtx(context.Background(), "dr-house", rec.ID); err != nil {
					errs <- fmt.Errorf("get w%d/%d: %w", w, i, err)
					return
				}
				if i%5 == 0 {
					rec.Body += " corrected"
					if _, err := v.CorrectCtx(context.Background(), "dr-house", rec); err != nil {
						errs <- fmt.Errorf("correct w%d/%d: %w", w, i, err)
						return
					}
				}
				if i%7 == 0 {
					if _, err := v.SearchCtx(context.Background(), "dr-house", "hypertension"); err != nil {
						errs <- fmt.Errorf("search w%d/%d: %w", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v.Len() != writers*perWriter {
		t.Errorf("Len = %d, want %d", v.Len(), writers*perWriter)
	}
	rep, err := v.VerifyAll(nil, nil)
	if err != nil {
		t.Fatalf("VerifyAll after concurrency: %v", err)
	}
	wantVersions := writers * perWriter * 6 / 5 // every 5th record corrected
	if rep.VersionsChecked != wantVersions {
		t.Errorf("versions = %d, want %d", rep.VersionsChecked, wantVersions)
	}
	if _, err := v.Shard(0).aud.Verify(nil); err != nil {
		t.Errorf("audit chain after concurrency: %v", err)
	}
}
