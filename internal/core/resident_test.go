package core

import (
	"context"
	"io/fs"
	"math"
	"runtime"
	"strings"
	"testing"

	"medvault/internal/ehr"
	"medvault/internal/faultfs"
)

// noSyncFS is the real filesystem with flushes made free, so a test can
// drive tens of thousands of durable writes in seconds. Nothing it writes
// stays in the heap, unlike faultfs.Mem.
type noSyncFS struct{ faultfs.OS }

type noSyncFile struct{ faultfs.File }

func (f noSyncFile) Sync() error { return nil }

func (n noSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := n.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

// profileRate samples the heap profile about once per 512 allocated bytes:
// scaled as pprof scales it, it reads within 0.2 % of an exact profile
// (runtime.MemProfileRate = 1) here, at a sixth of the run time.
const profileRate = 512

// residentBytes returns the bytes in use on the heap, in total and for the
// per-record state this file budgets: everything but the index's postings
// and term lists, the audit log and the Merkle tree, which have budgets of
// their own (index.TestSSEResidentBytesPerPosting,
// audit.TestResidentBytesPerEvent). The heap profile must be sampling at
// profileRate.
// Each is the least of three readings, each after two collections: another
// goroutine's live bytes can land in one reading, while the vault under test
// is live in all three.
func residentBytes() (total, tables int64) {
	total, tables = math.MaxInt64, math.MaxInt64
	for range 3 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		var recs []runtime.MemProfileRecord
		for n, ok := runtime.MemProfile(nil, true); !ok; {
			recs = make([]runtime.MemProfileRecord, n+64)
			if n, ok = runtime.MemProfile(recs, true); ok {
				recs = recs[:n]
			}
		}
		var t int64
		for _, r := range recs {
			if !budgetedElsewhere(r.Stack()) {
				t += scaled(r)
			}
		}
		total, tables = min(total, int64(ms.HeapAlloc)), min(tables, t)
	}
	return total, tables
}

// scaled estimates the bytes a profile record stands for from its samples,
// as pprof does: an object of size s is sampled with probability
// 1 - exp(-s/rate).
func scaled(r runtime.MemProfileRecord) int64 {
	n, b := r.InUseObjects(), r.InUseBytes()
	if n == 0 {
		return 0
	}
	return int64(float64(b) / (1 - math.Exp(-float64(b)/float64(n)/profileRate)))
}

// budgetedElsewhere reports whether an allocation's innermost medvault frame
// is the audit log, the Merkle tree, or the index's posting storage; a map
// the index grows on a document's behalf is per-record state and counts.
func budgetedElsewhere(stack []uintptr) bool {
	frames := runtime.CallersFrames(stack)
	inMap := false
	for {
		f, more := frames.Next()
		fn := f.Function
		switch {
		case strings.HasPrefix(fn, "runtime.mapassign"), strings.HasPrefix(fn, "internal/runtime/maps."):
			inMap = true
		case strings.HasPrefix(fn, "medvault/internal/"):
			return strings.HasPrefix(fn, "medvault/internal/audit.") ||
				strings.HasPrefix(fn, "medvault/internal/merkle.") ||
				fn == "medvault/internal/index.(*SSE).addLocked" && !inMap
		}
		if !more {
			return false
		}
	}
}

// TestVaultResidentBytesPerRecord is the budget for what a durable shard
// keeps in RAM per record in its registry and per-record tables: the
// record's state and versions, its wrapped DEK, custody refs, retention
// entry, its place in the index's document table and the record numbers
// that tie them together. Both read caches are off, so only per-record
// state grows.
func TestVaultResidentBytesPerRecord(t *testing.T) {
	const records, corrected, budget = 20_000, 2_000, 540
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = profileRate
	ctx := context.Background()
	v, err := Open(Config{Name: "resident", Master: mustKey(t), Clock: mustClock(), Dir: t.TempDir(), FS: noSyncFS{},
		DEKCacheEntries: -1, BlockCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	registerStaff(t, v)
	// Records are generated as they are written, as a server decodes them
	// from requests: whatever the vault keeps of one is counted.
	puts, again := ehr.NewGenerator(7, testEpoch), ehr.NewGenerator(7, testEpoch)
	clinical := func(g *ehr.Generator) ehr.Record {
		r := g.Next()
		r.Category = ehr.CategoryClinical
		return r
	}

	total0, tables0 := residentBytes()
	for i := 0; i < records; i++ {
		if _, err := v.PutCtx(ctx, "dr-house", clinical(puts)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < records; i++ {
		r := clinical(again)
		if i%(records/corrected) != 0 {
			continue
		}
		r.Body += " Addendum: reviewed."
		if _, err := v.CorrectCtx(ctx, "dr-house", r); err != nil {
			t.Fatal(err)
		}
	}
	total, tables := residentBytes()
	runtime.KeepAlive(v)
	per := float64(tables-tables0) / records
	t.Logf("%d records, %d corrected: %.1f B/record in per-record state, %.1f B/record on the whole heap",
		records, corrected, per, float64(total-total0)/records)
	if per > budget {
		t.Errorf("a durable shard keeps %.1f B/record of per-record state resident, budget is %d", per, budget)
	}
}
