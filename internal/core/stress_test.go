package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"medvault/internal/ehr"
	"medvault/internal/merkle"
)

// TestConcurrentMixedOpsDurable drives mixed Put/Correct/Get/GetVersion/
// History/Search traffic against one durable (file-backed, WAL-logged) vault
// from many goroutines, then demands a clean full integrity sweep — and a
// second one after crash-free reopen. Run with -race: the test exists to
// catch lock-ordering and shared-state mistakes across the instrumented hot
// paths as much as logical corruption.
func TestConcurrentMixedOpsDurable(t *testing.T) {
	master := mustKey(t)
	dir := t.TempDir()
	v, err := Open(Config{Name: "stress-test", Master: master, Clock: mustClock(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	registerStaff(t, v)

	const (
		writers   = 4
		readers   = 4
		perWriter = 12
	)
	recID := func(w, i int) string { return fmt.Sprintf("stress-w%d-r%d", w, i) }
	record := func(w, i int) ehr.Record {
		return ehr.Record{
			ID: recID(w, i), Patient: "Stress Patient", MRN: fmt.Sprintf("mrn-%d-%d", w, i),
			Category: ehr.CategoryClinical, Author: "dr-house", CreatedAt: testEpoch,
			Title: "stress note", Body: fmt.Sprintf("hypertension follow-up %d-%d", w, i),
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := record(w, i)
				if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
					errc <- fmt.Errorf("writer %d: Put %s: %w", w, rec.ID, err)
					return
				}
				if i%3 == 0 {
					rec.Body += " — amended"
					if _, err := v.CorrectCtx(context.Background(), "dr-house", rec); err != nil {
						errc <- fmt.Errorf("writer %d: Correct %s: %w", w, rec.ID, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perWriter*2; i++ {
				id := recID(r%writers, i%perWriter)
				// Concurrent readers race the writers, so ErrNotFound is a
				// legitimate outcome; anything else is not.
				if _, _, err := v.GetCtx(context.Background(), "dr-house", id); err != nil && !errors.Is(err, ErrNotFound) {
					errc <- fmt.Errorf("reader %d: Get %s: %w", r, id, err)
					return
				}
				if _, _, err := v.GetVersionCtx(context.Background(), "dr-house", id, 1); err != nil && !errors.Is(err, ErrNotFound) {
					errc <- fmt.Errorf("reader %d: GetVersion %s: %w", r, id, err)
					return
				}
				if _, err := v.HistoryCtx(context.Background(), "dr-house", id); err != nil && !errors.Is(err, ErrNotFound) {
					errc <- fmt.Errorf("reader %d: History %s: %w", r, id, err)
					return
				}
				if _, err := v.SearchCtx(context.Background(), "dr-house", "hypertension"); err != nil {
					errc <- fmt.Errorf("reader %d: Search: %w", r, err)
					return
				}
			}
		}(r)
	}
	// Compliance traffic rides along with the clinical load: legal holds
	// placed and released (archivist), an emergency break-glass grant with
	// elevated reads (billing clerk), and record exports (archivist). All of
	// these race the writers, so ErrNotFound is legitimate; any other failure
	// is a bug in the lock layering.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWriter*writers; i++ {
			id := recID(i%writers, i%perWriter)
			err := v.PlaceHoldCtx(context.Background(), "arch-lee", id, "stress-test litigation hold")
			if errors.Is(err, ErrNotFound) {
				continue
			}
			if err != nil {
				errc <- fmt.Errorf("hold: PlaceHold %s: %w", id, err)
				return
			}
			if err := v.ReleaseHoldCtx(context.Background(), "arch-lee", id); err != nil {
				errc <- fmt.Errorf("hold: ReleaseHold %s: %w", id, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := v.BreakGlassCtx(context.Background(), "clerk-bob", "stress-test emergency", time.Hour); err != nil {
			errc <- fmt.Errorf("break-glass grant: %w", err)
			return
		}
		for i := 0; i < perWriter*writers; i++ {
			id := recID(i%writers, i%perWriter)
			if _, _, err := v.GetCtx(context.Background(), "clerk-bob", id); err != nil && !errors.Is(err, ErrNotFound) {
				errc <- fmt.Errorf("break-glass Get %s: %w", id, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWriter*writers; i++ {
			id := recID((i+1)%writers, i%perWriter)
			if _, err := v.Export("arch-lee", id); err != nil && !errors.Is(err, ErrNotFound) {
				errc <- fmt.Errorf("Export %s: %w", id, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if v.Len() != writers*perWriter {
		t.Errorf("Len = %d, want %d", v.Len(), writers*perWriter)
	}
	rep, err := v.VerifyAll(nil, nil)
	if err != nil {
		t.Fatalf("VerifyAll after concurrent load: %v", err)
	}
	if rep.RecordsChecked != writers*perWriter {
		t.Errorf("verified %d records, want %d", rep.RecordsChecked, writers*perWriter)
	}
	head := v.Shard(0).Head()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: recovery must rebuild the same state and still pass
	// a sweep that includes the pre-close tree head.
	v2, err := Open(Config{Name: "stress-test", Master: master, Clock: mustClock(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	registerStaff(t, v2)
	if v2.Len() != writers*perWriter {
		t.Errorf("reopened Len = %d, want %d", v2.Len(), writers*perWriter)
	}
	if _, err := v2.VerifyAll([]merkle.SignedTreeHead{head}, nil); err != nil {
		t.Fatalf("VerifyAll after reopen: %v", err)
	}
}
