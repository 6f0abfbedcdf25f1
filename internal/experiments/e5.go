package experiments

import (
	"bytes"
	"fmt"
	"time"

	"medvault/internal/vcrypto"
)

// E5 measures secure deletion (paper §2's §164.310(d)(2) disposal/media
// re-use mandates, §3 "the confidentiality of records previously stored in
// such media should be ensured"): after disposing records, can an adversary
// with the discarded medium (all bytes ever written, freed sectors
// included) and all surviving system keys recover any plaintext? It also
// reports disposal latency — crypto-shredding is O(1) in record size.
func E5(n int) (Table, error) {
	subjects, err := NewSubjects()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "E5",
		Title:  fmt.Sprintf("Secure deletion: residual recoverability after disposing %d records", n),
		Note:   "recoverable = disposed plaintext reconstructible from medium bytes + surviving keys.",
		Header: []string{"store", "dispose/op", "recoverable", "residual plaintext", "key-recovery"},
	}
	for _, sub := range subjects {
		recs := Corpus(n)
		for i := range recs {
			recs[i].CreatedAt = Epoch
		}
		if err := seed(sub.Store, recs); err != nil {
			return Table{}, err
		}
		if sub.Clock != nil {
			advanceYears(sub.Clock, 40)
		}
		victims := recs[: n/2 : n/2]
		start := time.Now()
		for _, r := range victims {
			if err := sub.Store.Dispose(r.ID); err != nil {
				return Table{}, fmt.Errorf("E5 %s dispose: %w", sub.Store.Name(), err)
			}
		}
		per := time.Since(start) / time.Duration(len(victims))

		raw := sub.Store.RawBytes()
		residual := 0
		for _, r := range victims {
			if bytes.Contains(raw, []byte(r.Patient)) || bytes.Contains(raw, []byte(r.Body)) {
				residual++
			}
		}
		keyRecovered := 0
		if sub.Cryptonly != nil {
			// The store-wide key survives; try it against freed sectors.
			for _, r := range victims {
				for _, freed := range sub.Cryptonly.FreedSectors() {
					if _, err := vcrypto.Open(sub.Cryptonly.MasterKey(), freed, []byte(r.ID)); err == nil {
						keyRecovered++
						break
					}
				}
			}
		}
		recoverable := "no"
		if residual > 0 || keyRecovered > 0 {
			recoverable = "YES"
		}
		t.Rows = append(t.Rows, []string{
			sub.Store.Name(),
			fmtDur(per),
			recoverable,
			fmt.Sprintf("%d/%d", residual, len(victims)),
			fmt.Sprintf("%d/%d", keyRecovered, len(victims)),
		})
	}
	return t, nil
}
