// Package medvault_test holds the testing.B benchmarks that correspond to
// experiments E1–E9 (see DESIGN.md's experiment index and cmd/medbench for
// the table-producing harness). Run with:
//
//	go test -bench=. -benchmem
package medvault_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"medvault/internal/attack"
	"medvault/internal/audit"
	"medvault/internal/backup"
	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/experiments"
	"medvault/internal/index"
	"medvault/internal/migrate"
	"medvault/internal/stores"
	"medvault/internal/vcrypto"
)

// subjectsOrDie builds the five storage models.
func subjectsOrDie(b *testing.B) []experiments.Subject {
	b.Helper()
	subs, err := experiments.NewSubjects()
	if err != nil {
		b.Fatal(err)
	}
	return subs
}

// BenchmarkE1Compliance runs the full 13-probe compliance matrix.
func BenchmarkE1Compliance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2Put measures create latency per storage model (experiment E2).
func BenchmarkE2Put(b *testing.B) {
	for _, sub := range subjectsOrDie(b) {
		b.Run(sub.Store.Name(), func(b *testing.B) {
			fresh := subjectsOrDie(b)
			var s stores.Store
			for _, f := range fresh {
				if f.Store.Name() == sub.Store.Name() {
					s = f.Store
				}
			}
			gen := ehr.NewGenerator(1, experiments.Epoch)
			recs := gen.Corpus(b.N)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.Put(recs[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2Get measures read latency per storage model (experiment E2).
func BenchmarkE2Get(b *testing.B) {
	const n = 1000
	for _, sub := range subjectsOrDie(b) {
		b.Run(sub.Store.Name(), func(b *testing.B) {
			// The body re-runs during calibration; seed only once.
			recs := experiments.Corpus(n)
			if sub.Store.Len() == 0 {
				for _, r := range recs {
					if err := sub.Store.Put(r); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sub.Store.Get(recs[i%n].ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2Search measures keyword search per storage model at n=1000
// (experiment E2/E4 crossover: scan-based models degrade with n).
func BenchmarkE2Search(b *testing.B) {
	const n = 1000
	kw := ehr.CommonCondition()
	for _, sub := range subjectsOrDie(b) {
		b.Run(sub.Store.Name(), func(b *testing.B) {
			if sub.Store.Len() == 0 {
				for _, r := range experiments.Corpus(n) {
					if err := sub.Store.Put(r); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sub.Store.Search(kw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3Verify measures the cost of each model's integrity sweep over
// 500 records — the price of detection (experiment E3).
func BenchmarkE3Verify(b *testing.B) {
	const n = 500
	for _, sub := range subjectsOrDie(b) {
		b.Run(sub.Store.Name(), func(b *testing.B) {
			if sub.Store.Len() == 0 {
				for _, r := range experiments.Corpus(n) {
					if err := sub.Store.Put(r); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sub.Store.Verify(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3Campaign mounts the full attack campaign (experiment E3).
func BenchmarkE3Campaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		subs := subjectsOrDie(b)
		for _, sub := range subs {
			recs := experiments.Corpus(6)
			for _, r := range recs {
				if err := sub.Store.Put(r); err != nil {
					b.Fatal(err)
				}
			}
			attack.Mount(sub.Store, attack.BitFlip, recs[0].ID, recs[1].ID)
		}
	}
}

// BenchmarkE4Search compares scan vs plaintext index vs SSE index at
// n=5000 (experiment E4).
func BenchmarkE4Search(b *testing.B) {
	const n = 5000
	recs := experiments.Corpus(n)
	kw := ehr.CommonCondition()
	master, err := vcrypto.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	plain := index.NewPlaintext()
	sse := index.NewSSE(master)
	for _, r := range recs {
		plain.Add(r.ID, r.SearchText())
		sse.Add(r.ID, r.SearchText())
	}
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			count := 0
			for _, r := range recs {
				for _, w := range index.Tokenize(r.SearchText()) {
					if w == kw {
						count++
						break
					}
				}
			}
		}
	})
	b.Run("plaintext-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plain.Search(kw)
		}
	})
	b.Run("sse-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sse.Search(kw)
		}
	})
}

// BenchmarkE5Shred measures crypto-shredding latency (experiment E5): the
// cost is key destruction plus index cleanup, independent of record size.
func BenchmarkE5Shred(b *testing.B) {
	subs := subjectsOrDie(b)
	sub := subs[len(subs)-1] // MedVault
	recs := ehr.NewGenerator(1, experiments.Epoch).Corpus(b.N)
	for i := range recs {
		recs[i].CreatedAt = experiments.Epoch
		if err := sub.Store.Put(recs[i]); err != nil {
			b.Fatal(err)
		}
	}
	sub.Clock.Advance(40 * 365 * 24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sub.Store.Dispose(recs[i].ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Migrate measures vault-to-vault migration throughput with full
// manifest verification (experiment E6).
func BenchmarkE6Migrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := subjectsOrDie(b)
		c := subjectsOrDie(b)
		src, dst := a[len(a)-1], c[len(c)-1]
		recs := experiments.Corpus(25)
		var ids []string
		for _, r := range recs {
			if err := src.Store.Put(r); err != nil {
				b.Fatal(err)
			}
			ids = append(ids, r.ID)
		}
		b.StartTimer()
		rep, err := migrate.Run(src.Vault, dst.Vault, ids, migrate.Options{Actor: "bench-admin"})
		if err != nil || len(rep.Migrated) != len(ids) {
			b.Fatalf("migrated %d/%d: %v", len(rep.Migrated), len(ids), err)
		}
	}
}

// BenchmarkE7AuditAppend measures tamper-evident audit append cost
// (experiment E7).
func BenchmarkE7AuditAppend(b *testing.B) {
	signer, err := vcrypto.NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	key, err := vcrypto.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	log, err := audit.Open(audit.Config{Store: blockstore.NewMemory(0), MACKey: key, Signer: signer})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := log.Append(audit.Event{
			Actor: "dr-a", Action: audit.ActionRead,
			Record: fmt.Sprintf("r-%d", i%100), Outcome: audit.OutcomeAllowed,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7AuditVerify measures full-chain verification per event count
// (experiment E7's linearity series).
func BenchmarkE7AuditVerify(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			signer, err := vcrypto.NewSigner()
			if err != nil {
				b.Fatal(err)
			}
			key, err := vcrypto.NewKey()
			if err != nil {
				b.Fatal(err)
			}
			log, err := audit.Open(audit.Config{Store: blockstore.NewMemory(0), MACKey: key, Signer: signer})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := log.Append(audit.Event{Actor: "a", Action: audit.ActionRead, Outcome: audit.OutcomeAllowed}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := log.Verify(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Backup measures sealed full-backup creation (experiment E8).
func BenchmarkE8Backup(b *testing.B) {
	subs := subjectsOrDie(b)
	sub := subs[len(subs)-1]
	for _, r := range experiments.Corpus(200) {
		if err := sub.Store.Put(r); err != nil {
			b.Fatal(err)
		}
	}
	key, err := vcrypto.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backup.Create(sub.Vault, "bench-admin", key, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8BackupFixedHistory measures one full backup of 200 freshly
// created records, so every iteration exports chains of the same length (a
// create and the backup's own event). BenchmarkE8Backup reuses one vault,
// whose chains grow by an event per record per iteration.
func BenchmarkE8BackupFixedHistory(b *testing.B) {
	key, err := vcrypto.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		subs := subjectsOrDie(b)
		sub := subs[len(subs)-1]
		for _, r := range experiments.Corpus(200) {
			if err := sub.Store.Put(r); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := backup.Create(sub.Vault, "bench-admin", key, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Restore measures verified restore into a fresh vault
// (experiment E8).
func BenchmarkE8Restore(b *testing.B) {
	subs := subjectsOrDie(b)
	sub := subs[len(subs)-1]
	for _, r := range experiments.Corpus(100) {
		if err := sub.Store.Put(r); err != nil {
			b.Fatal(err)
		}
	}
	key, err := vcrypto.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	arch, err := backup.Create(sub.Vault, "bench-admin", key, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := subjectsOrDie(b)
		target := fresh[len(fresh)-1].Vault
		b.StartTimer()
		if _, err := backup.Restore(arch, key, target, "bench-admin"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Overhead reports bytes-per-record per storage model as a
// custom metric (experiment E9).
func BenchmarkE9Overhead(b *testing.B) {
	const n = 300
	for _, sub := range subjectsOrDie(b) {
		b.Run(sub.Store.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := subjectsOrDie(b)
				var s stores.Store
				for _, f := range fresh {
					if f.Store.Name() == sub.Store.Name() {
						s = f.Store
					}
				}
				recs := experiments.Corpus(n)
				b.StartTimer()
				for _, r := range recs {
					if err := s.Put(r); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(s.StorageBytes())/float64(n), "bytes/record")
			}
		})
	}
}

// BenchmarkVaultVerifyAll measures the full integrity sweep of the hybrid
// store at 500 records — the recurring cost of the paper's malicious-insider
// guarantee.
func BenchmarkVaultVerifyAll(b *testing.B) {
	subs := subjectsOrDie(b)
	sub := subs[len(subs)-1]
	for _, r := range experiments.Corpus(500) {
		if err := sub.Store.Put(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sub.Vault.VerifyAll(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// newParallelVault builds a vault on an in-memory disk wrapped in the bench adapter
// for the parallel-scaling benchmarks below.
func newParallelVault(b *testing.B) *core.Adapter {
	b.Helper()
	master, err := vcrypto.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	v, err := core.Open(core.Config{Name: "bench-parallel", Master: master, Clock: clock.NewVirtual(experiments.Epoch)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { v.Close() })
	a, err := core.NewAdapter(v)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkPutParallel measures multi-goroutine create throughput through the
// striped lock manager: RunParallel fans Put calls across GOMAXPROCS workers,
// each writing distinct record IDs so only the shared append structures
// (WAL-less memory mode: Merkle log, audit chain, index) serialize.
func BenchmarkPutParallel(b *testing.B) {
	a := newParallelVault(b)
	var ctr atomic.Uint64
	gen := ehr.NewGenerator(7, experiments.Epoch)
	proto := gen.Corpus(1)[0]
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec := proto
			rec.ID = fmt.Sprintf("par-put-%d", ctr.Add(1))
			rec.MRN = "mrn-" + rec.ID
			if err := a.Put(rec); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkGetParallel measures the parallel read path: a fixed working set
// is written once, then RunParallel issues Gets that hold only shared stripe
// locks, so reads on different records proceed concurrently.
func BenchmarkGetParallel(b *testing.B) {
	a := newParallelVault(b)
	const working = 256
	gen := ehr.NewGenerator(11, experiments.Epoch)
	ids := make([]string, working)
	for i, rec := range gen.Corpus(working) {
		rec.ID = fmt.Sprintf("par-get-%d", i)
		rec.MRN = "mrn-" + rec.ID
		ids[i] = rec.ID
		if err := a.Put(rec); err != nil {
			b.Fatal(err)
		}
	}
	var ctr atomic.Uint64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := ids[ctr.Add(1)%working]
			if _, err := a.Get(id); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
