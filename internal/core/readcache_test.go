package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"sync"
	"testing"
	"time"

	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/vcrypto"
)

// clinicalRecords draws n distinct clinical records from one generator (a
// single stream guarantees unique IDs; independent seeds do not).
func clinicalRecords(t *testing.T, seed int64, n int) []ehr.Record {
	t.Helper()
	g := ehr.NewGenerator(seed, testEpoch)
	recs := make([]ehr.Record, 0, n)
	seen := map[string]bool{}
	for len(recs) < n {
		r := g.Next()
		if r.Category != ehr.CategoryClinical || seen[r.ID] {
			continue
		}
		seen[r.ID] = true
		recs = append(recs, r)
	}
	return recs
}

// TestBlockCacheHashGate pins the block cache's safety property: a hit is
// served only when the entry's fill-time hash equals the hash the caller's
// version metadata demands. An entry that can't match degrades to a miss and
// is dropped, never served.
func TestBlockCacheHashGate(t *testing.T) {
	c := newBlockCache(1<<20, "")
	ref := blockstore.Ref{Segment: 1, Offset: 64}
	data := []byte("ciphertext-bytes")
	h := sha256.Sum256(data)
	c.put(ref, h, data)

	if got, ok := c.get(ref, h); !ok || string(got) != string(data) {
		t.Fatalf("matching-hash get: ok=%v data=%q", ok, got)
	}
	other := sha256.Sum256([]byte("a different version's ciphertext"))
	if _, ok := c.get(ref, other); ok {
		t.Fatal("cache served a block whose hash does not match the caller's version metadata")
	}
	// The mismatched entry was dropped, so even the original hash misses now.
	if _, ok := c.get(ref, h); ok {
		t.Fatal("mismatched entry was not dropped")
	}
}

// TestBlockCacheBounds pins the sizing rules: total bytes stay under the cap
// via LRU eviction, and a single block larger than the whole cache is skipped
// rather than flushing everything else.
func TestBlockCacheBounds(t *testing.T) {
	c := newBlockCache(100, "")
	block := func(i int, n int) (blockstore.Ref, [32]byte, []byte) {
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(i)
		}
		return blockstore.Ref{Segment: uint32(i)}, sha256.Sum256(data), data
	}

	r1, h1, d1 := block(1, 40)
	r2, h2, d2 := block(2, 40)
	r3, h3, d3 := block(3, 40)
	c.put(r1, h1, d1)
	c.put(r2, h2, d2)
	c.put(r3, h3, d3) // 120 bytes > cap: r1 (LRU) must go
	if n := c.lru.Len(); n != 2 {
		t.Fatalf("cache holds %d blocks of 40 bytes, cap 100", n)
	}
	if _, ok := c.get(r1, h1); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, pr := range []struct {
		ref  blockstore.Ref
		hash [32]byte
	}{{r2, h2}, {r3, h3}} {
		if _, ok := c.get(pr.ref, pr.hash); !ok {
			t.Fatalf("recent entry %v evicted", pr.ref)
		}
	}

	rBig, hBig, dBig := block(9, 200)
	c.put(rBig, hBig, dBig)
	if _, ok := c.get(rBig, hBig); ok {
		t.Fatal("oversized block was cached")
	}
	if _, ok := c.get(r3, h3); !ok {
		t.Fatal("oversized put flushed existing entries")
	}
}

// TestShredNeverCachedAsNotFound keeps the three lookup outcomes apart, with
// nothing remembered between reads: an absent ID is ErrNotFound until the
// moment it is put and readable from then on, and a shredded record's reads
// return ErrShredded forever — they never decay into ErrNotFound.
func TestShredNeverCachedAsNotFound(t *testing.T) {
	v, vc := newVault(t)
	ctx := context.Background()
	rec := clinicalRecord(t, 78)
	for i := 0; i < 2; i++ {
		if _, _, err := v.GetCtx(ctx, "dr-house", rec.ID); !errors.Is(err, ErrNotFound) {
			t.Fatalf("probe %d of absent %s: want ErrNotFound, got %v", i, rec.ID, err)
		}
	}
	if _, err := v.PutCtx(ctx, "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	if got, _, err := v.GetCtx(ctx, "dr-house", rec.ID); err != nil || got.Body != rec.Body {
		t.Fatalf("Get right after Put of a probed-absent ID: body match %v, err %v", got.Body == rec.Body, err)
	}
	if _, err := v.HistoryCtx(ctx, "dr-house", rec.ID); err != nil {
		t.Fatalf("History after Put: %v", err)
	}
	if _, _, err := v.GetVersionCtx(ctx, "dr-house", rec.ID, 1); err != nil {
		t.Fatalf("GetVersion after Put: %v", err)
	}
	vc.Advance(40 * 365 * 24 * time.Hour)
	if err := v.ShredCtx(ctx, "arch-lee", rec.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := v.GetCtx(ctx, "dr-house", rec.ID); !errors.Is(err, ErrShredded) {
			t.Fatalf("read %d of shredded record: want ErrShredded, got %v", i, err)
		}
	}
}

// TestCachedReadsSurviveShredOfNeighbor exercises block-cache invalidation
// scoping: shredding one record drops its blocks but leaves other records'
// cached blocks intact and correct.
func TestCachedReadsSurviveShredOfNeighbor(t *testing.T) {
	v, vc := newVault(t)
	recs := clinicalRecords(t, 80, 2)
	keep, doomed := recs[0], recs[1]
	if _, err := v.PutCtx(context.Background(), "dr-house", keep); err != nil {
		t.Fatal(err)
	}
	if _, err := v.PutCtx(context.Background(), "dr-house", doomed); err != nil {
		t.Fatal(err)
	}
	// Warm both records' block-cache entries.
	for _, id := range []string{keep.ID, doomed.ID} {
		if _, _, err := v.GetCtx(context.Background(), "dr-house", id); err != nil {
			t.Fatal(err)
		}
	}
	vc.Advance(40 * 365 * 24 * time.Hour)
	if err := v.ShredCtx(context.Background(), "arch-lee", doomed.ID); err != nil {
		t.Fatal(err)
	}
	got, _, err := v.GetCtx(context.Background(), "dr-house", keep.ID)
	if err != nil {
		t.Fatalf("cached read of surviving record: %v", err)
	}
	if got.Body != keep.Body {
		t.Fatal("cached read of surviving record returned wrong content")
	}
	if _, _, err := v.GetCtx(context.Background(), "dr-house", doomed.ID); !errors.Is(err, ErrShredded) {
		t.Fatalf("read of shredded record: want ErrShredded, got %v", err)
	}
}

// TestVerifyAllCatchesStaleDEKAfterShred is the core-level half of the
// revert-the-invalidation check: if Shred stops purging the DEK cache (test
// hook), the next VerifyAll must fail with ErrTampered instead of certifying
// a vault whose "destroyed" key is still obtainable.
func TestVerifyAllCatchesStaleDEKAfterShred(t *testing.T) {
	vcrypto.TestHookKeepDEKCacheOnShred.Store(true)
	defer vcrypto.TestHookKeepDEKCacheOnShred.Store(false)

	v, vc := newVault(t)
	rec := clinicalRecord(t, 82)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	vc.Advance(40 * 365 * 24 * time.Hour)
	if err := v.ShredCtx(context.Background(), "arch-lee", rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyAll(nil, nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("VerifyAll with a cached post-shred DEK: want ErrTampered, got %v", err)
	}

	// With invalidation restored the same sequence verifies clean.
	vcrypto.TestHookKeepDEKCacheOnShred.Store(false)
	v2, vc2 := newVault(t)
	rec2 := clinicalRecord(t, 83)
	if _, err := v2.PutCtx(context.Background(), "dr-house", rec2); err != nil {
		t.Fatal(err)
	}
	vc2.Advance(40 * 365 * 24 * time.Hour)
	if err := v2.ShredCtx(context.Background(), "arch-lee", rec2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := v2.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll after a proper shred: %v", err)
	}
}

// TestReopenedVaultIsCold pins the durability boundary of the caches: they
// are process memory, so a reopened vault starts with zero cached DEKs and
// must re-earn every hit from the authoritative stores.
func TestReopenedVaultIsCold(t *testing.T) {
	dir := t.TempDir()
	master := mustKey(t)
	vc := clock.NewVirtual(testEpoch)

	v := openDurable(t, dir, master, vc)
	rec := clinicalRecord(t, 84)
	if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.GetCtx(context.Background(), "dr-house", rec.ID); err != nil {
		t.Fatal(err)
	}
	if v.Shard(0).keys.CachedDEKs() == 0 {
		t.Fatal("read did not warm the DEK cache")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	v2 := openDurable(t, dir, master, vc)
	defer v2.Close()
	if n := v2.Shard(0).keys.CachedDEKs(); n != 0 {
		t.Fatalf("reopened vault has %d cached DEKs, want 0", n)
	}
	got, _, err := v2.GetCtx(context.Background(), "dr-house", rec.ID)
	if err != nil {
		t.Fatalf("cold read after reopen: %v", err)
	}
	if got.Body != rec.Body {
		t.Fatal("cold read returned wrong content")
	}
	if v2.Shard(0).keys.CachedDEKs() == 0 {
		t.Fatal("cold read did not refill the cache")
	}
}

// TestConcurrentGetShredStress is the vault-level -race stress: readers
// hammer Get across a set of records while a destroyer shreds them one by
// one. Readers may see the record or ErrShredded — never a torn result, a
// stale body, or any other error — and afterward every record is gone from
// every cache layer.
func TestConcurrentGetShredStress(t *testing.T) {
	v, vc := newVault(t)
	const n = 16
	ids := make([]string, 0, n)
	for _, rec := range clinicalRecords(t, 100, n) {
		if _, err := v.PutCtx(context.Background(), "dr-house", rec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	vc.Advance(40 * 365 * 24 * time.Hour)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(g*13+i)%n]
				if _, _, err := v.GetCtx(context.Background(), "dr-house", id); err != nil && !errors.Is(err, ErrShredded) {
					t.Errorf("Get(%s): %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range ids {
			if err := v.ShredCtx(context.Background(), "arch-lee", id); err != nil {
				t.Errorf("Shred(%s): %v", id, err)
				return
			}
		}
	}()
	wg.Wait()

	for _, id := range ids {
		if _, _, err := v.GetCtx(context.Background(), "dr-house", id); !errors.Is(err, ErrShredded) {
			t.Fatalf("after stress, Get(%s): want ErrShredded, got %v", id, err)
		}
		if v.Shard(0).keys.HasCachedDEK(id) {
			t.Fatalf("after stress, %s still has a cached plaintext DEK", id)
		}
	}
	if _, err := v.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll after stress: %v", err)
	}
}
