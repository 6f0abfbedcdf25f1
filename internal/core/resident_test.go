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

// residentBytes returns the bytes in use on the heap: in total, for the
// per-record state this file budgets — everything but the index's postings
// and term lists, the audit log and the Merkle tree, whose per-record state
// their packages budget (index.TestSSEResidentBytesPerPosting,
// audit.TestResidentBytesPerRecord; merkle's interior nodes have none) —
// and by table (tableOf). The heap profile must be sampling at profileRate.
// Each is the least of three readings, each after two collections: another
// goroutine's live bytes can land in one reading, while the vault under test
// is live in all three.
func residentBytes() (total, tables int64, byTable map[string]int64) {
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
		by := make(map[string]int64)
		for _, r := range recs {
			if !budgetedElsewhere(r.Stack()) {
				t += scaled(r)
			}
			by[tableOf(r.Stack())] += scaled(r)
		}
		if t < tables {
			byTable = by
		}
		total, tables = min(total, int64(ms.HeapAlloc)), min(tables, t)
	}
	return total, tables, byTable
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

// tableNames names the package whose per-record state an allocation is, by its
// owner's package.
var tableNames = map[string]string{
	"core": "registry", "vcrypto": "key store", "provenance": "custody", "retention": "retention",
	"index": "index", "audit": "audit", "merkle": "Merkle",
}

// tableOf is the table an allocation belongs to, "other" when none does.
func tableOf(stack []uintptr) string {
	fn, _, _ := owner(stack)
	pkg, _, _ := strings.Cut(strings.TrimPrefix(fn, "medvault/internal/"), ".")
	if name, ok := tableNames[pkg]; ok {
		return name
	}
	return "other"
}

// owner is the innermost medvault frame of an allocation outside recno,
// which allocates on its callers' behalf, so that the shard's record and
// names tables count with what interns in them or grows by them; whether a
// map or recno frame lies inside it; "" when no frame is medvault's.
func owner(stack []uintptr) (fn string, inMap, viaRecno bool) {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		switch fn := f.Function; {
		case strings.HasPrefix(fn, "runtime.mapassign"), strings.HasPrefix(fn, "internal/runtime/maps."):
			inMap = true
		case strings.HasPrefix(fn, "medvault/internal/recno."):
			viaRecno = true
		case strings.HasPrefix(fn, "medvault/internal/"):
			return fn, inMap, viaRecno
		}
		if !more {
			return "", inMap, viaRecno
		}
	}
}

// budgetedElsewhere reports whether an allocation is the audit log's, the
// Merkle tree's, or the index's posting and term-list storage; a map or
// record-number slice the index grows on a document's behalf is per-record
// state and counts.
func budgetedElsewhere(stack []uintptr) bool {
	fn, inMap, viaRecno := owner(stack)
	return strings.HasPrefix(fn, "medvault/internal/audit.") ||
		strings.HasPrefix(fn, "medvault/internal/merkle.") ||
		!inMap && !viaRecno && (fn == "medvault/internal/index.(*SSE).addLocked" || fn == "medvault/internal/index.reserve" ||
			strings.HasPrefix(fn, "medvault/internal/index.(*postings)."))
}

// TestVaultResidentBytesPerRecord is the budget for what a durable shard
// keeps in RAM per record in its registry and per-record tables: the
// record's state and versions, its wrapped DEK, custody refs, retention
// entry, its place in the index's document table and the record numbers
// that tie them together. Both read caches are off, so only per-record
// state grows. The whole heap has a budget too, and each table's share is
// logged, so a regression names its table. With SSE documents holding a
// []uint32 term list, posting lists of uint32s, the audit log's symbol
// tables in maps and each record's MRN as a string, the whole heap measured
// 833.9 B/record; with the term arena, gap-coded posting lists, the audit
// tables on recno and MRNs in the names table, 644.9; with an audit anchor
// per 32 events in place of a slot and a tail offset per event, which took
// the audit row from 112.7 to 89.7, it measures 633.0.
func TestVaultResidentBytesPerRecord(t *testing.T) {
	const records, corrected, budget, wholeBudget = 20_000, 2_000, 540, 690
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

	total0, tables0, by0 := residentBytes()
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
	total, tables, by := residentBytes()
	runtime.KeepAlive(v)
	per, whole := float64(tables-tables0)/records, float64(total-total0)/records
	t.Logf("%d records, %d corrected: %.1f B/record in per-record state, %.1f B/record on the whole heap",
		records, corrected, per, whole)
	for _, name := range []string{"registry", "key store", "custody", "retention", "index", "audit", "Merkle", "other"} {
		t.Logf("  %-9s %6.1f B/record", name, float64(by[name]-by0[name])/records)
	}
	if per > budget {
		t.Errorf("a durable shard keeps %.1f B/record of per-record state resident, budget is %d", per, budget)
	}
	if whole > wholeBudget {
		t.Errorf("a durable shard grows the heap %.1f B/record, budget is %d", whole, wholeBudget)
	}
}
