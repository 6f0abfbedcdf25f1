package experiments

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"medvault/internal/audit"
	"medvault/internal/blockstore"
	"medvault/internal/vcrypto"
)

// E7 measures audit-trail scalability (paper §3 "All access to the storage
// system should be logged in a trustworthy manner"): append throughput, and
// full-chain verification time as the log grows, and what the running log
// keeps resident per event. The log lives in segment files in a temporary
// directory, so "resident" is the process's own bookkeeping and verification
// reads the medium. Expected shape: appends are constant-time; verification
// is linear in log size; resident bytes per event are flat and far below an
// event's stored size, which is flat too (segment frames included);
// checkpoint-anchored verification pays the same linear scan
// but bounds what an adversary can rewrite to the suffix after the newest
// off-system checkpoint. The events are a repeat-read mix — 17 actors reading
// 512 records, each access carrying the server's authorization reason — so
// the stored size is what a log pays once its symbol tables know the staff,
// the records and the reasons.
func E7(sizes []int) (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "Audit chain: append throughput, verification cost, resident and stored bytes vs size",
		Header: []string{"events", "append/op", "append rate", "verify(all)", "verify rate", "checkpointed", "resident B/event", "stored B/event (repeat reads)"},
	}
	for _, n := range sizes {
		row, err := e7Row(n)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// e7Row measures one log size on its own temporary directory, removed on
// return.
func e7Row(n int) ([]string, error) {
	signer, err := vcrypto.NewSigner()
	if err != nil {
		return nil, err
	}
	key, err := vcrypto.NewKey()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "medvault-e7-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := blockstore.OpenFile(dir, 0)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	before := heapAlloc()
	log, err := audit.Open(audit.Config{
		Store:              store,
		MACKey:             key,
		Signer:             signer,
		CheckpointInterval: 1000,
	})
	if err != nil {
		return nil, err
	}
	appendTotal, appendPer, err := timeOp(n, func(i int) error {
		_, err := log.Append(audit.Event{
			Actor:   fmt.Sprintf("dr-%d", i%17),
			Action:  audit.ActionRead,
			Record:  fmt.Sprintf("mrn-%06d/enc-0", i%512),
			Outcome: audit.OutcomeAllowed,
			Detail:  `role physician permits read on "clinical"`,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	resident := float64(int64(heapAlloc())-int64(before)) / float64(n)
	vStart := time.Now()
	verified, err := log.Verify(nil)
	if err != nil {
		return nil, err
	}
	verifyCost := time.Since(vStart)

	// Verification anchored to the newest checkpoint.
	cps := log.Checkpoints()
	cpCell := "none"
	if len(cps) > 0 {
		cp := cps[len(cps)-1]
		cStart := time.Now()
		if _, err := log.Verify(signer.Public(), cp); err != nil {
			return nil, err
		}
		cpCell = fmtDur(time.Since(cStart))
	}
	return []string{
		fmt.Sprintf("%d", n),
		fmtDur(appendPer),
		fmtRate(n, appendTotal),
		fmtDur(verifyCost),
		fmtRate(verified, verifyCost),
		cpCell,
		fmt.Sprintf("%.0f", resident),
		fmt.Sprintf("%.0f", float64(store.StorageBytes())/float64(n)),
	}, nil
}
