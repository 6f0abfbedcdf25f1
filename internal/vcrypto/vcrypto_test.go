package vcrypto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"medvault/internal/frame"
)

func testKey(t *testing.T) Key {
	t.Helper()
	k, err := NewKey()
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	return k
}

// loadKeyStore is how a vault reopens its keystore: NewKeyStore, then
// Restore of a snapshot taken under the same master key.
func loadKeyStore(master Key, snap []byte) (*KeyStore, error) {
	ks := NewKeyStore(master)
	if err := ks.Restore(snap); err != nil {
		return nil, err
	}
	return ks, nil
}

func TestSealOpenRoundTrip(t *testing.T) {
	k := testKey(t)
	for _, pt := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("EPHI"), 1000)} {
		ct, err := Seal(k, pt, []byte("rec/1"))
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		got, err := Open(k, ct, []byte("rec/1"))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, pt) {
			t.Errorf("round trip mismatch: got %d bytes, want %d", len(got), len(pt))
		}
	}
}

func TestOpenRejectsTamperedCiphertext(t *testing.T) {
	k := testKey(t)
	ct, err := Seal(k, []byte("diagnosis: hypertension"), []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ct); i += 7 {
		mutated := append([]byte(nil), ct...)
		mutated[i] ^= 0x01
		if _, err := Open(k, mutated, []byte("aad")); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("flip at byte %d: got err %v, want ErrDecrypt", i, err)
		}
	}
}

func TestOpenRejectsWrongAAD(t *testing.T) {
	k := testKey(t)
	ct, err := Seal(k, []byte("payload"), []byte("patient-A/v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(k, ct, []byte("patient-B/v1")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("ciphertext swap between records not detected: %v", err)
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	k1, k2 := testKey(t), testKey(t)
	ct, err := Seal(k1, []byte("payload"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(k2, ct, nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong key accepted: %v", err)
	}
}

func TestOpenRejectsShortBlob(t *testing.T) {
	k := testKey(t)
	for _, n := range []int{0, 1, 11, Overhead - 1} {
		if _, err := Open(k, make([]byte, n), nil); !errors.Is(err, ErrDecrypt) {
			t.Errorf("blob of %d bytes: got %v, want ErrDecrypt", n, err)
		}
	}
}

func TestSealOverheadConstant(t *testing.T) {
	k := testKey(t)
	for _, n := range []int{0, 1, 100, 4096} {
		ct, err := Seal(k, make([]byte, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ct) != n+Overhead {
			t.Errorf("plaintext %d bytes: ciphertext %d, want %d", n, len(ct), n+Overhead)
		}
	}
}

func TestSealNoncesUnique(t *testing.T) {
	k := testKey(t)
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		ct, err := Seal(k, []byte("same plaintext"), nil)
		if err != nil {
			t.Fatal(err)
		}
		nonce := string(ct[:12])
		if seen[nonce] {
			t.Fatal("nonce repeated across Seal calls")
		}
		seen[nonce] = true
	}
}

func TestSealOpenProperty(t *testing.T) {
	k := testKey(t)
	f := func(pt, aad []byte) bool {
		ct, err := Seal(k, pt, aad)
		if err != nil {
			return false
		}
		got, err := Open(k, ct, aad)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeriveKeyDomainSeparation(t *testing.T) {
	parent := testKey(t)
	a := DeriveKey(parent, "index")
	b := DeriveKey(parent, "audit")
	a2 := DeriveKey(parent, "index")
	if a == b {
		t.Error("distinct labels produced identical keys")
	}
	if a != a2 {
		t.Error("derivation is not deterministic")
	}
	if a == parent {
		t.Error("derived key equals parent")
	}
}

func TestMACVerify(t *testing.T) {
	k := testKey(t)
	msg := []byte("audit entry 42")
	sum := MAC(k, msg)
	m := NewKeyedMAC(k)
	if !m.Verify(msg, sum) {
		t.Error("valid MAC rejected")
	}
	if m.Verify([]byte("audit entry 43"), sum) {
		t.Error("MAC accepted for different message")
	}
	if NewKeyedMAC(testKey(t)).Verify(msg, sum) {
		t.Error("MAC accepted under another key")
	}
	sum[0] ^= 1
	if m.Verify(msg, sum) {
		t.Error("mutated MAC accepted")
	}
}

// TestTagIsTheMACPrefix: a tag is the first TagSize bytes of the whole MAC,
// appended to dst, and VerifyTag takes it and nothing else: a tag of another
// message or key, a flipped bit, and every other length — among them the
// empty tag, the tag less its last byte, the MAC's first 17 bytes and the
// whole MAC, each a prefix of the MAC a prefix compare would pass.
func TestTagIsTheMACPrefix(t *testing.T) {
	k := testKey(t)
	msg := []byte("audit event 42")
	m := NewKeyedMAC(k)
	sum := MAC(k, msg)
	tag := m.Tag(nil, msg)
	if !bytes.Equal(tag, sum[:TagSize]) || cap(tag) != TagSize {
		t.Fatalf("Tag = %x (cap %d), want the MAC's first %d bytes %x and no more", tag, cap(tag), TagSize, sum[:TagSize])
	}
	if got := m.Tag([]byte("prefix"), msg); !bytes.Equal(got, append([]byte("prefix"), tag...)) {
		t.Errorf("Tag does not append to dst: %x", got)
	}
	if !m.VerifyTag(msg, tag) {
		t.Error("valid tag rejected")
	}
	if m.VerifyTag([]byte("audit event 43"), tag) {
		t.Error("tag accepted for a different message")
	}
	if NewKeyedMAC(testKey(t)).VerifyTag(msg, tag) {
		t.Error("tag accepted under another key")
	}
	flipped := bytes.Clone(tag)
	flipped[TagSize-1] ^= 1
	if m.VerifyTag(msg, flipped) {
		t.Error("mutated tag accepted")
	}
	for _, n := range []int{0, 15, 17, 32} {
		if m.VerifyTag(msg, sum[:n]) {
			t.Errorf("a %d-byte prefix of the MAC accepted as a tag", n)
		}
	}
}

// TestKeyedMACEqualsMAC is for the race detector too: goroutines share one
// KeyedMAC, and every pooled sum must equal the one-shot MAC of its input —
// a state returned to the pool unreset would carry one caller's bytes into
// another's sum.
func TestKeyedMACEqualsMAC(t *testing.T) {
	k := testKey(t)
	m := NewKeyedMAC(k)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				msg := []byte(fmt.Sprintf("worker %d message %d", w, i))
				want := MAC(k, msg)
				if got := m.Sum(nil, msg); !bytes.Equal(got, want) {
					t.Errorf("Sum(%q) = %x, MAC = %x", msg, got, want)
					return
				}
				if !m.Verify(msg, want) || m.Verify(msg[1:], want) {
					t.Errorf("Verify(%q) disagrees with MAC", msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.Sum([]byte("prefix"), nil); !bytes.Equal(got, append([]byte("prefix"), MAC(k, nil)...)) {
		t.Errorf("Sum does not append to dst: %x", got)
	}
}

// BenchmarkMAC compares hmac.New per call (MAC) with a pooled, reset state
// (KeyedMAC) on a search keyword.
func BenchmarkMAC(b *testing.B) {
	k := Key{1}
	word := []byte("hypertension")
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MAC(k, word)
		}
	})
	b.Run("keyed", func(b *testing.B) {
		m := NewKeyedMAC(k)
		var out [32]byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Sum(out[:0], word)
		}
	})
}

func TestKeyFromBytes(t *testing.T) {
	if _, err := KeyFromBytes(make([]byte, 31)); !errors.Is(err, ErrBadKey) {
		t.Errorf("short key accepted: %v", err)
	}
	if _, err := KeyFromBytes(make([]byte, 33)); !errors.Is(err, ErrBadKey) {
		t.Errorf("long key accepted: %v", err)
	}
	k, err := KeyFromBytes(bytes.Repeat([]byte{7}, 32))
	if err != nil {
		t.Fatal(err)
	}
	if k[0] != 7 || k[31] != 7 {
		t.Error("key bytes not copied")
	}
}

func TestKeyFingerprintStable(t *testing.T) {
	k, _ := KeyFromBytes(bytes.Repeat([]byte{1}, 32))
	if k.Fingerprint() != k.Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
	k2, _ := KeyFromBytes(bytes.Repeat([]byte{2}, 32))
	if k.Fingerprint() == k2.Fingerprint() {
		t.Error("distinct keys share fingerprint")
	}
	if len(k.Fingerprint()) != 16 {
		t.Errorf("fingerprint length %d, want 16 hex chars", len(k.Fingerprint()))
	}
}

func TestKeyStoreCreateGetShred(t *testing.T) {
	ks := NewKeyStore(testKey(t))
	dek, err := ks.Create("patient-1")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := ks.Get("patient-1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got != dek {
		t.Error("Get returned a different DEK than Create")
	}
	if _, err := ks.Create("patient-1"); !errors.Is(err, ErrKeyExists) {
		t.Errorf("duplicate Create: %v", err)
	}
	if err := ks.Shred("patient-1"); err != nil {
		t.Fatalf("Shred: %v", err)
	}
	if _, err := ks.Get("patient-1"); !errors.Is(err, ErrShredded) {
		t.Errorf("Get after shred: %v, want ErrShredded", err)
	}
	if !ks.IsShredded("patient-1") {
		t.Error("IsShredded false after shred")
	}
	// Shredding is idempotent.
	if err := ks.Shred("patient-1"); err != nil {
		t.Errorf("second Shred: %v", err)
	}
	// Shredded IDs cannot be resurrected.
	if _, err := ks.Create("patient-1"); !errors.Is(err, ErrShredded) {
		t.Errorf("Create after shred: %v, want ErrShredded", err)
	}
}

func TestKeyStoreGetMissing(t *testing.T) {
	ks := NewKeyStore(testKey(t))
	if _, err := ks.Get("ghost"); !errors.Is(err, ErrNoKey) {
		t.Errorf("Get missing: %v, want ErrNoKey", err)
	}
	if err := ks.Shred("ghost"); !errors.Is(err, ErrNoKey) {
		t.Errorf("Shred missing: %v, want ErrNoKey", err)
	}
}

func TestKeyStoreSnapshotRoundTrip(t *testing.T) {
	master := testKey(t)
	ks := NewKeyStore(master)
	deks := make(map[string]Key)
	for _, id := range []string{"a", "b", "c", "d"} {
		dek, err := ks.Create(id)
		if err != nil {
			t.Fatal(err)
		}
		deks[id] = dek
	}
	if err := ks.Shred("b"); err != nil {
		t.Fatal(err)
	}

	restored, err := loadKeyStore(master, ks.Snapshot())
	if err != nil {
		t.Fatalf("loadKeyStore: %v", err)
	}
	for _, id := range []string{"a", "c", "d"} {
		got, err := restored.Get(id)
		if err != nil {
			t.Fatalf("restored Get(%s): %v", id, err)
		}
		if got != deks[id] {
			t.Errorf("restored DEK for %s differs", id)
		}
	}
	if _, err := restored.Get("b"); !errors.Is(err, ErrShredded) {
		t.Errorf("shred tombstone lost in snapshot: %v", err)
	}
	if restored.Len() != 3 {
		t.Errorf("restored Len = %d, want 3", restored.Len())
	}
	want := []string{"a", "c", "d"}
	got := restored.IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestKeyStoreSnapshotHasNoPlaintextKeys(t *testing.T) {
	master := testKey(t)
	ks := NewKeyStore(master)
	dek, err := ks.Create("pt")
	if err != nil {
		t.Fatal(err)
	}
	snap := ks.Snapshot()
	if bytes.Contains(snap, dek[:]) {
		t.Error("snapshot contains raw DEK bytes")
	}
	if bytes.Contains(snap, master[:]) {
		t.Error("snapshot contains master key bytes")
	}
}

func TestLoadKeyStoreRejectsGarbage(t *testing.T) {
	master := testKey(t)
	for _, snap := range [][]byte{nil, []byte("XXXX"), []byte("MVKS\x00\x02"), []byte("MVKS\x00\x01\x00\x00\x00\x05")} {
		if _, err := loadKeyStore(master, snap); err == nil {
			t.Errorf("garbage snapshot %q accepted", snap)
		}
	}
}

func TestLoadKeyStoreWrongMasterFailsOnGet(t *testing.T) {
	ks := NewKeyStore(testKey(t))
	if _, err := ks.Create("pt"); err != nil {
		t.Fatal(err)
	}
	restored, err := loadKeyStore(testKey(t), ks.Snapshot())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := restored.Get("pt"); !errors.Is(err, ErrDecrypt) {
		t.Errorf("wrong master unwrap: %v, want ErrDecrypt", err)
	}
}

func TestSignerSignVerify(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("signed tree head #7")
	sig := s.Sign(msg)
	if err := s.Public().Verify(msg, sig); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}
	if err := s.Public().Verify([]byte("other"), sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("forged message accepted: %v", err)
	}
	sig[0] ^= 1
	if err := s.Public().Verify(msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("mutated signature accepted: %v", err)
	}
}

func TestSignerFromSeedDeterministic(t *testing.T) {
	seed := testKey(t)
	s1 := SignerFromSeed(seed)
	s2 := SignerFromSeed(seed)
	if s1.Public().String() != s2.Public().String() {
		t.Error("same seed produced different identities")
	}
	msg := []byte("m")
	if err := s2.Public().Verify(msg, s1.Sign(msg)); err != nil {
		t.Errorf("cross verification failed: %v", err)
	}
}

// TestSignerDeriveKey: a signer's derived keys are deterministic in its seed,
// distinct per label, and differ between signers.
func TestSignerDeriveKey(t *testing.T) {
	seed := testKey(t)
	s := SignerFromSeed(seed)
	if s.DeriveKey("custody") != SignerFromSeed(seed).DeriveKey("custody") {
		t.Error("derivation is not deterministic in the seed")
	}
	if s.DeriveKey("custody") == s.DeriveKey("other") {
		t.Error("distinct labels produced identical keys")
	}
	other, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	if s.DeriveKey("custody") == other.DeriveKey("custody") {
		t.Error("two signers derived the same key")
	}
}

// TestEd25519Counted: every Sign and every Verify of a well-formed key
// counts once in medvault_crypto_ed25519_total.
func TestEd25519Counted(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	signs, verifies := metEd25519Sign.Value(), metEd25519Verify.Value()
	sig := s.Sign([]byte("m"))
	s.Public().Verify([]byte("m"), sig)
	s.Public().Verify([]byte("x"), sig)
	PublicKey{1}.Verify([]byte("m"), sig) // malformed: no Ed25519 work
	if d := metEd25519Sign.Value() - signs; d != 1 {
		t.Errorf("signs counted: %d, want 1", d)
	}
	if d := metEd25519Verify.Value() - verifies; d != 2 {
		t.Errorf("verifies counted: %d, want 2", d)
	}
}

func TestPublicKeyHexRoundTrip(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := PublicKeyFromHex(s.Public().String())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	if err := parsed.Verify(msg, s.Sign(msg)); err != nil {
		t.Errorf("parsed key failed to verify: %v", err)
	}
	if _, err := PublicKeyFromHex("zz"); err == nil {
		t.Error("invalid hex accepted")
	}
	if _, err := PublicKeyFromHex("abcd"); err == nil {
		t.Error("wrong-length key accepted")
	}
}

// TestRestoreRejectsWrongSizeWrappedDEK: every wrapped DEK is a sealed key,
// KeySize+Overhead bytes. A snapshot carrying a truncated or oversized one
// is refused at load, naming the record, and leaves the store as it was;
// the parent accepted it and failed only on the record's first Get. A
// record listed twice is refused the same way.
func TestRestoreRejectsWrongSizeWrappedDEK(t *testing.T) {
	master := testKey(t)
	src := NewKeyStore(master)
	for _, id := range []string{"rec-a", "rec-b"} {
		if _, err := src.Create(id); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := src.WrappedFor("rec-b")
	if err != nil {
		t.Fatal(err)
	}
	snap := func(live map[string][]byte, dead ...string) []byte {
		b := binary.BigEndian.AppendUint16([]byte(ksMagic), ksVersion)
		b = frame.AppendCount(b, len(live))
		for _, id := range []string{"rec-a", "rec-b"} {
			if bl, ok := live[id]; ok {
				b = frame.AppendBytes(frame.AppendStr(b, id), bl)
			}
		}
		b = frame.AppendCount(b, len(dead))
		for _, id := range dead {
			b = frame.AppendStr(b, id)
		}
		return b
	}
	good, _ := src.WrappedFor("rec-a")
	for name, tc := range map[string]struct {
		snap []byte
		want string
	}{
		"truncated": {snap(map[string][]byte{"rec-a": good, "rec-b": blob[:len(blob)-1]}), "rec-b"},
		"oversized": {snap(map[string][]byte{"rec-a": good, "rec-b": append(blob, 0)}), "rec-b"},
		"twice":     {snap(map[string][]byte{"rec-a": good}, "rec-a"), "rec-a"},
	} {
		ks := NewKeyStore(master)
		if _, err := ks.Create("kept"); err != nil {
			t.Fatal(err)
		}
		err := ks.Restore(tc.snap)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore = %v, want an error naming %s", name, err, tc.want)
		}
		if _, err := ks.Get("kept"); err != nil || ks.Len() != 1 || ks.IsShredded("rec-a") {
			t.Errorf("%s: a refused snapshot changed the store: Get(kept) %v, Len %d", name, err, ks.Len())
		}
		if _, err := loadKeyStore(master, tc.snap); err == nil {
			t.Errorf("%s: loadKeyStore accepted it", name)
		}
	}
	if ks, err := loadKeyStore(master, snap(map[string][]byte{"rec-a": good, "rec-b": blob})); err != nil || ks.Len() != 2 {
		t.Fatalf("well-formed snapshot: %v", err)
	}
	for _, bad := range [][]byte{blob[:len(blob)-1], append(blob, 0)} {
		ks := NewKeyStore(master)
		if err := ks.AdoptWrapped("rec-b", bad); !errors.Is(err, ErrBadKey) || !strings.Contains(err.Error(), "rec-b") {
			t.Errorf("AdoptWrapped of a %d-byte blob: %v", len(bad), err)
		}
		if ks.Len() != 0 {
			t.Errorf("a refused blob was registered")
		}
	}
}
