package experiments

import (
	"bytes"
	"fmt"
	"time"

	"medvault/internal/ehr"
	"medvault/internal/index"
	"medvault/internal/vcrypto"
)

// E4 measures the trustworthy-index claims (paper §3 "Availability and
// Performance", reference [9]): search latency of a full decrypt-scan vs a
// plaintext inverted index vs the SSE index, at several corpus sizes, plus
// the leakage probe — can an adversary holding the index's stored bytes
// recover the vocabulary?
//
// Expected shape: both indexes answer in microseconds independent of corpus
// size; the scan grows linearly; the plaintext index leaks every keyword;
// the SSE index leaks none; the SSE index's resident bytes per (document,
// keyword) posting are flat in corpus size.
func E4(sizes []int) (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "Search: scan vs plaintext index vs SSE index",
		Note:   "leak = fraction of condition keywords recoverable from the index's stored bytes.",
		Header: []string{"n", "scan/op", "plain-idx/op", "sse-idx/op", "plain leak", "sse leak", "resident B/posting"},
	}
	for _, n := range sizes {
		recs := Corpus(n)
		master, err := vcrypto.NewKey()
		if err != nil {
			return Table{}, err
		}
		plain := index.NewPlaintext()
		postings := 0
		for _, r := range recs {
			plain.Add(r.ID, r.SearchText())
			postings += len(index.Tokenize(r.SearchText()))
		}
		before := heapAlloc()
		sse := index.NewSSE(master)
		for _, r := range recs {
			sse.Add(r.ID, r.SearchText())
		}
		resident := float64(int64(heapAlloc())-int64(before)) / float64(max(postings, 1))
		kw := ehr.CommonCondition()

		// Full scan over the in-memory corpus (the decrypt cost is paid by
		// the scanning store; here we measure the pure scan floor).
		scanPer := measure(10, func() {
			for _, r := range recs {
				containsKeyword(r, kw)
			}
		})
		plainPer := measure(200, func() { plain.Search(kw) })
		ssePer := measure(200, func() { sse.Search(kw) })

		plainLeak, err := leakFraction(plain)
		if err != nil {
			return Table{}, err
		}
		sseLeak, err := leakFraction(sse)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmtDur(scanPer),
			fmtDur(plainPer),
			fmtDur(ssePer),
			fmt.Sprintf("%d/%d", plainLeak, len(ehr.ConditionNames())),
			fmt.Sprintf("%d/%d", sseLeak, len(ehr.ConditionNames())),
			fmt.Sprintf("%.0f", resident),
		})
	}
	return t, nil
}

func containsKeyword(r ehr.Record, kw string) bool {
	for _, w := range index.Tokenize(r.SearchText()) {
		if w == kw {
			return true
		}
	}
	return false
}

func measure(iters int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(iters)
}

// leakFraction counts how many condition keywords appear verbatim in the
// index's serialized form — the adversary's cheapest possible attack.
func leakFraction(idx index.Index) (int, error) {
	snap, err := idx.Snapshot()
	if err != nil {
		return 0, err
	}
	leaked := 0
	for _, kw := range ehr.ConditionNames() {
		if bytes.Contains(snap, []byte(kw)) {
			leaked++
		}
	}
	return leaked, nil
}
