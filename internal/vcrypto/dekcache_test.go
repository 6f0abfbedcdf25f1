package vcrypto

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestDEKCacheLifecycle pins when the plaintext-DEK cache holds a key and
// when it must not, operation by operation: shredding destroys the DEK, so
// its cached copy must die with it.
func TestDEKCacheLifecycle(t *testing.T) {
	newMaster := func(t *testing.T) Key {
		t.Helper()
		k, err := NewKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	cases := []struct {
		name       string
		cacheCap   int // 0 = DefaultDEKCacheCap
		run        func(t *testing.T, ks *KeyStore)
		wantCached bool // for record "rec" after run
	}{
		{
			name:       "create warms the cache",
			run:        func(t *testing.T, ks *KeyStore) {},
			wantCached: true,
		},
		{
			name: "get after purge refills",
			run: func(t *testing.T, ks *KeyStore) {
				if n := ks.Purge(); n == 0 {
					t.Fatal("purge dropped nothing; expected the created entry")
				}
				if ks.HasCachedDEK("rec") {
					t.Fatal("entry survived Purge")
				}
				if _, err := ks.Get("rec"); err != nil {
					t.Fatal(err)
				}
			},
			wantCached: true,
		},
		{
			name: "shred invalidates synchronously",
			run: func(t *testing.T, ks *KeyStore) {
				if err := ks.Shred("rec"); err != nil {
					t.Fatal(err)
				}
				if _, err := ks.Get("rec"); !errors.Is(err, ErrShredded) {
					t.Fatalf("post-shred Get: want ErrShredded, got %v", err)
				}
			},
			wantCached: false,
		},
		{
			name:     "disabled cache never holds keys",
			cacheCap: -1,
			run: func(t *testing.T, ks *KeyStore) {
				if _, err := ks.Get("rec"); err != nil {
					t.Fatal(err)
				}
				if n := ks.CachedDEKs(); n != 0 {
					t.Fatalf("disabled cache holds %d entries", n)
				}
			},
			wantCached: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cacheCap == 0 {
				tc.cacheCap = DefaultDEKCacheCap
			}
			ks := NewKeyStoreCached(newMaster(t), tc.cacheCap)
			want, err := ks.Create("rec")
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, ks)
			if got := ks.HasCachedDEK("rec"); got != tc.wantCached {
				t.Fatalf("HasCachedDEK = %v, want %v", got, tc.wantCached)
			}
			if tc.wantCached {
				got, err := ks.Get("rec")
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatal("cached DEK differs from the created DEK")
				}
			}
		})
	}
}

// TestDEKCacheZeroizeOnEvict proves evicted entries do not leave plaintext
// key material behind: with a single-slot cache, inserting a second key must
// zero the first key's bytes in place before the entry is released.
func TestDEKCacheZeroizeOnEvict(t *testing.T) {
	master, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	ks := NewKeyStoreCached(master, 1)
	if _, err := ks.Create("a"); err != nil {
		t.Fatal(err)
	}
	entA, _ := ks.cache.Peek("a") // the cache's own copy of the key
	if entA == nil || *entA == (Key{}) {
		t.Fatal("cached entry for a is missing or already zero")
	}

	if _, err := ks.Create("b"); err != nil { // evicts a (cap 1)
		t.Fatal(err)
	}
	if ks.HasCachedDEK("a") {
		t.Fatal("a not evicted from a single-slot cache")
	}
	if *entA != (Key{}) {
		t.Fatal("evicted entry's key material was not zeroized")
	}
	// The authoritative wrapped copy is untouched: a is still readable.
	if _, err := ks.Get("a"); err != nil {
		t.Fatalf("Get after eviction: %v", err)
	}
}

// TestDEKCacheZeroizeOnShred is the same hygiene bound for invalidation:
// Shred must zero the cached entry, not merely unlink it.
func TestDEKCacheZeroizeOnShred(t *testing.T) {
	master, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	ks := NewKeyStore(master)
	if _, err := ks.Create("a"); err != nil {
		t.Fatal(err)
	}
	ent, _ := ks.cache.Peek("a")
	if ent == nil || *ent == (Key{}) {
		t.Fatal("cached entry for a is missing or already zero")
	}
	if err := ks.Shred("a"); err != nil {
		t.Fatal(err)
	}
	if *ent != (Key{}) {
		t.Fatal("shredded entry's key material was not zeroized")
	}
}

// TestLoadKeyStoreTruncatedSnapshot feeds Restore every prefix of a
// valid snapshot: each must fail cleanly (no panic, no partial store), and
// only the complete snapshot may load. The zero-length and sub-magic prefixes
// are the regression for the short-read bug where a bare Read of the magic
// accepted fewer than 4 bytes.
func TestLoadKeyStoreTruncatedSnapshot(t *testing.T) {
	master, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	ks := NewKeyStore(master)
	for _, id := range []string{"rec-a", "rec-b", "rec-c"} {
		if _, err := ks.Create(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ks.Shred("rec-b"); err != nil {
		t.Fatal(err)
	}
	snap := ks.Snapshot()

	if _, err := loadKeyStore(master, nil); err == nil {
		t.Fatal("nil snapshot loaded")
	}
	for cut := 0; cut < len(snap); cut++ {
		if _, err := loadKeyStore(master, snap[:cut]); err == nil {
			t.Fatalf("snapshot truncated to %d/%d bytes loaded without error", cut, len(snap))
		}
	}
	back, err := loadKeyStore(master, snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || !back.IsShredded("rec-b") {
		t.Fatalf("round trip: %d live keys, shredded(rec-b)=%v", back.Len(), back.IsShredded("rec-b"))
	}
}

// TestKeyStoreConcurrentGetShred is the -race stress for the read path:
// readers hammer Get while other goroutines shred and create fresh keys.
// Beyond data races (the reason Get copies the wrapped blob under the lock),
// it checks the end state: every shredded key is gone from both the store
// and the cache.
func TestKeyStoreConcurrentGetShred(t *testing.T) {
	master, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	ks := NewKeyStoreCached(master, 8) // small: eviction churns under load
	const live, doomed = 8, 8
	var ids, victims []string
	for i := 0; i < live; i++ {
		id := fmt.Sprintf("live-%d", i)
		ids = append(ids, id)
		if _, err := ks.Create(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < doomed; i++ {
		id := fmt.Sprintf("doomed-%d", i)
		victims = append(victims, id)
		if _, err := ks.Create(id); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := ids[(g+i)%len(ids)]
				if _, err := ks.Get(id); err != nil {
					t.Errorf("Get(%s): %v", id, err)
					return
				}
				// Shredded keys may error with ErrShredded or, transiently,
				// still resolve while the shredder hasn't reached them.
				v := victims[(g*7+i)%len(victims)]
				if _, err := ks.Get(v); err != nil && !errors.Is(err, ErrShredded) {
					t.Errorf("Get(%s): %v", v, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range victims {
			if err := ks.Shred(v); err != nil {
				t.Errorf("Shred(%s): %v", v, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			id := fmt.Sprintf("fresh-%d", i)
			if _, err := ks.Create(id); err != nil {
				t.Errorf("Create(%s): %v", id, err)
				return
			}
			if _, err := ks.Get(id); err != nil {
				t.Errorf("Get(%s): %v", id, err)
				return
			}
		}
	}()
	wg.Wait()

	for _, v := range victims {
		if _, err := ks.Get(v); !errors.Is(err, ErrShredded) {
			t.Fatalf("after stress, Get(%s): want ErrShredded, got %v", v, err)
		}
		if ks.HasCachedDEK(v) {
			t.Fatalf("after stress, %s still has a cached plaintext DEK", v)
		}
	}
	for _, id := range ids {
		if _, err := ks.Get(id); err != nil {
			t.Fatalf("after stress, Get(%s): %v", id, err)
		}
	}
}
