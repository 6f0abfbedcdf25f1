package experiments

import (
	"fmt"
)

// E9 measures storage cost (paper §3 "Cost": compliance "should not be
// cost-prohibitive" and must run on cheap commodity media): bytes on disk
// per record for each storage model, and the overhead factor relative to the
// relational baseline (which stores little more than the raw rows).
// Expected shape: the hybrid's overhead is a modest constant factor — the
// price of framing, AEAD, commitments, audit, and the encrypted index — not
// an asymptotic blowup.
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

// E9Raw returns bytes-per-record per store for shape assertions.
func E9Raw(n int) (map[string]float64, error) {
	table, err := E9(n)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, row := range table.Rows {
		var v float64
		fmt.Sscanf(row[2], "%f", &v)
		out[row[0]] = v
	}
	return out, nil
}
