package experiments

import (
	"fmt"
)

// E9 measures storage cost (paper §3 "Cost": compliance "should not be
// cost-prohibitive" and must run on cheap commodity media): each storage
// model's StorageBytes per record, and the overhead factor relative to the
// relational baseline (which stores little more than the raw rows).
// For WORM and MedVault that is the ciphertext (block store, plus what
// MedVault still holds inline in meta.wal) and the encrypted index's stored
// form; commitments, audit events, custody chains and the rest of meta.wal
// are not counted (ROADMAP item 15 walks the medium instead). Expected
// shape: the hybrid's overhead is a modest constant factor — the price of
// AEAD framing and the encrypted index — not an asymptotic blowup.
func E9(n int) (Table, error) {
	subjects, err := NewSubjects()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "E9",
		Title:  fmt.Sprintf("Storage cost per record (n=%d records, 10%% corrected)", n),
		Header: []string{"store", "bytes total", "bytes/record", "overhead vs relational"},
	}
	recs := Corpus(n)
	var baseline float64
	type row struct {
		name  string
		total int64
	}
	var rows []row
	for _, sub := range subjects {
		if err := seed(sub.Store, recs); err != nil {
			return Table{}, err
		}
		for i := 0; i < n/10; i++ {
			if err := sub.Store.Correct(correctionOf(recs[i])); err != nil {
				break // WORM: skip corrections
			}
		}
		total := sub.Store.StorageBytes()
		rows = append(rows, row{sub.Store.Name(), total})
		if sub.Store.Name() == "relational" {
			baseline = float64(total)
		}
	}
	for _, r := range rows {
		overhead := "1.00x"
		if baseline > 0 {
			overhead = fmt.Sprintf("%.2fx", float64(r.total)/baseline)
		}
		t.Rows = append(t.Rows, []string{
			r.name,
			fmt.Sprintf("%d", r.total),
			fmt.Sprintf("%.0f", float64(r.total)/float64(n)),
			overhead,
		})
	}
	return t, nil
}
