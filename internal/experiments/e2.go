package experiments

import (
	"errors"
	"fmt"
	"time"

	"medvault/internal/ehr"
	"medvault/internal/stores"
)

// E2 measures the security/performance trade-off the paper's Section 4
// closes on: put, get, correct, and search latency per storage model at a
// given corpus size. The expected shape: the relational baseline is fastest
// (it does nothing but store bytes), the hybrid pays a bounded constant
// factor for crypto + commitment + audit, and the scan-based models' search
// degrades linearly with corpus size.
func E2(n int) (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  fmt.Sprintf("Operation latency by storage model (n=%d records)", n),
		Note:   "put = create; get = read latest; correct = amend (n/a on WORM); search = common keyword.",
		Header: []string{"store", "put/op", "put rate", "get/op", "correct/op", "search/op", "search hits"},
	}
	ms, err := measureStores(n)
	if err != nil {
		return Table{}, err
	}
	for _, m := range ms {
		t.Rows = append(t.Rows, []string{
			m.store,
			fmtDur(m.put),
			fmtRate(n, m.putTotal),
			fmtDur(m.get),
			m.correct,
			fmtDur(m.search),
			fmt.Sprintf("%d", m.hits),
		})
	}
	return t, nil
}

// E2Series is the figure-shaped counterpart of E2: per-store put/get/search
// latency across corpus sizes, showing the scaling behaviour Section 4
// argues about — indexed search stays flat while scan-based search grows
// linearly, and the hybrid's write overhead stays a constant factor.
func E2Series(sizes []int) (Table, error) {
	t := Table{
		ID:     "E2b",
		Title:  "Scaling series: per-op latency vs corpus size",
		Note:   "one row per (store, n); compare within a store across n for scaling, across stores at fixed n for overhead.",
		Header: []string{"store", "n", "put/op", "get/op", "search/op"},
	}
	for _, n := range sizes {
		ms, err := measureStores(n)
		if err != nil {
			return Table{}, err
		}
		for _, m := range ms {
			t.Rows = append(t.Rows, []string{
				m.store, fmt.Sprintf("%d", n),
				fmtDur(m.put), fmtDur(m.get), fmtDur(m.search),
			})
		}
	}
	return t, nil
}

// storeLatency is one store's per-op latencies at one corpus size.
type storeLatency struct {
	store                      string
	putTotal, put, get, search time.Duration
	correct                    string // a duration cell, or n/a on a write-once store
	hits                       int
}

// measureStores times, on fresh subjects, n puts, n gets, n/10 corrections
// and 20 searches for the common keyword in each storage model.
func measureStores(n int) ([]storeLatency, error) {
	subjects, err := NewSubjects()
	if err != nil {
		return nil, err
	}
	recs := Corpus(n)
	kw := ehr.CommonCondition()
	var out []storeLatency
	for _, sub := range subjects {
		s := sub.Store
		m := storeLatency{store: s.Name(), correct: "n/a (write-once)"}
		m.putTotal, m.put, err = timeOp(len(recs), func(i int) error { return s.Put(recs[i]) })
		if err != nil {
			return nil, fmt.Errorf("%s put: %w", s.Name(), err)
		}
		_, m.get, err = timeOp(len(recs), func(i int) error {
			_, err := s.Get(recs[i].ID)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s get: %w", s.Name(), err)
		}
		_, corrPer, err := timeOp(max(len(recs)/10, 1), func(i int) error {
			return s.Correct(correctionOf(recs[i]))
		})
		if err == nil {
			m.correct = fmtDur(corrPer)
		} else if !errors.Is(err, stores.ErrUnsupported) {
			return nil, fmt.Errorf("%s correct: %w", s.Name(), err)
		}
		_, m.search, err = timeOp(20, func(i int) error {
			ids, err := s.Search(kw)
			m.hits = len(ids)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s search: %w", s.Name(), err)
		}
		out = append(out, m)
	}
	return out, nil
}
