package vcrypto

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"errors"
	"testing"

	"medvault/internal/frame"
)

// TestKWRFC3394Vector is RFC 3394 §4.6: 256 bits of key data wrapped with a
// 256-bit KEK.
func TestKWRFC3394Vector(t *testing.T) {
	kek, _ := hex.DecodeString("000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F")
	data, _ := hex.DecodeString("00112233445566778899AABBCCDDEEFF000102030405060708090A0B0C0D0E0F")
	want, _ := hex.DecodeString("28C9F404C4B810F4CBCCB35CFB87F8263F5786E2D80ED326CBC7F0E71A99F43BFB988B9B7A02DD21")
	block, err := aes.NewCipher(kek)
	if err != nil {
		t.Fatal(err)
	}
	got := kwWrap(block, data)
	if !bytes.Equal(got, want) {
		t.Fatalf("wrap = %X\nwant   %X", got, want)
	}
	back, err := kwUnwrap(block, want)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("unwrap = %X, %v; want %X", back, err, data)
	}
}

// goldenDEK is the key the KW keystore vector wraps.
var goldenDEK = Key{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff,
	0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// goldenKWKeyStoreSnap holds rec-1 live, goldenDEK wrapped with AES-KW under
// rec-1's KEK from goldenMaster, and rec-2 shredded. AES-KW has no nonce, so
// the vector pins the encoding as well as the decoding.
const goldenKWKeyStoreSnap = "4d564b53000100000001000000057265632d31000000282cf9a32dccdf3ffefc0843f5d279804b98a0be1d1899adfa39" +
	"cb9b2d7f36be6f8c6837cfd27a73f800000001000000057265632d32"

// TestGoldenKWKeyStoreSnapshot pins the keystore snapshot with a 40-byte
// AES-KW blob, which the parent's Restore refuses by its size. The 60-byte
// AES-GCM vector (TestGoldenKeyStoreSnapshot) is decode-only.
func TestGoldenKWKeyStoreSnapshot(t *testing.T) {
	encode := func() []byte {
		ks := NewKeyStore(goldenMaster)
		if err := ks.AdoptWrapped("rec-1", wrapDEK(ks.wrap, "rec-1", goldenDEK)); err != nil {
			t.Fatal(err)
		}
		if err := ks.AdoptWrapped("rec-2", wrapDEK(ks.wrap, "rec-2", goldenDEK)); err != nil {
			t.Fatal(err)
		}
		if err := ks.Shred("rec-2"); err != nil {
			t.Fatal(err)
		}
		return ks.Snapshot()
	}
	want, _ := hex.DecodeString(goldenKWKeyStoreSnap)
	frame.CheckGolden(t, frame.Golden{
		Name:   "keystore snapshot, AES-KW",
		Hex:    goldenKWKeyStoreSnap,
		Encode: encode,
		Decode: func(b []byte) (any, error) {
			ks, err := loadKeyStore(goldenMaster, b)
			if err != nil {
				return nil, err
			}
			return ks.Snapshot(), nil
		},
		Want: want,
	})
	ks, err := loadKeyStore(goldenMaster, want)
	if err != nil {
		t.Fatal(err)
	}
	if dek, err := ks.Get("rec-1"); err != nil || dek != goldenDEK {
		t.Errorf("live key unwraps to %x, %v; want %x", dek, err, goldenDEK)
	}
	if blob, _ := ks.WrappedFor("rec-1"); len(blob) != kwWrappedLen || kwWrappedLen != 40 {
		t.Errorf("wrapped DEK is %d B, want 40", len(blob))
	}
}

// TestLegacyGCMBlobs: a DEK an older binary wrapped with AES-GCM (60 B)
// still registers through AdoptWrapped and Restore and unwraps, unchanged;
// Mint and Create write only 40-B AES-KW blobs. Shred drops a legacy blob as
// it zeroes a slot.
func TestLegacyGCMBlobs(t *testing.T) {
	master := testKey(t)
	dek := testKey(t)
	legacy, err := Seal(master, dek[:], []byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	ks := NewKeyStoreCached(master, 0)
	if err := ks.AdoptWrapped("old", legacy); err != nil {
		t.Fatal(err)
	}
	if err := ks.AdoptWrapped("moved", legacy); !errors.Is(err, ErrDecrypt) {
		t.Errorf("a legacy blob adopted under another ID: %v, want ErrDecrypt", err)
	}
	if _, err := ks.Create("new"); err != nil {
		t.Fatal(err)
	}
	_, minted, err := ks.Mint("minted")
	if err != nil {
		t.Fatal(err)
	}
	re, err := loadKeyStore(master, ks.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*KeyStore{ks, re} {
		if got, err := s.Get("old"); err != nil || got != dek {
			t.Errorf("legacy key: %v", err)
		}
		if blob, _ := s.WrappedFor("old"); !bytes.Equal(blob, legacy) {
			t.Errorf("the legacy blob changed")
		}
		if blob, _ := s.WrappedFor("new"); len(blob) != kwWrappedLen {
			t.Errorf("Create wrapped %d B, want %d", len(blob), kwWrappedLen)
		}
	}
	if len(minted) != kwWrappedLen {
		t.Errorf("Mint wrapped %d B, want %d", len(minted), kwWrappedLen)
	}
	if err := ks.Shred("old"); err != nil {
		t.Fatal(err)
	}
	if _, err := ks.Get("old"); !errors.Is(err, ErrShredded) || len(ks.keys.legacy) != 0 {
		t.Errorf("a shredded legacy key: Get %v, %d legacy blobs held", err, len(ks.keys.legacy))
	}
}

// FuzzUnwrap: unwrapping arbitrary bytes as a record's DEK never panics, and
// a real blob unwraps only unaltered and only as its own record's: every
// single-bit flip, and every other record ID, is refused.
func FuzzUnwrap(f *testing.F) {
	master := goldenMaster
	wrap := wrapMAC(master)
	f.Add([]byte(nil), "rec-1", 0)
	f.Add(wrapDEK(wrap, "rec-1", goldenDEK), "rec-1", 0)
	f.Add(wrapDEK(wrap, "rec-1", goldenDEK), "rec-2", 17)
	legacy, _ := Seal(master, goldenDEK[:], []byte("rec-1"))
	f.Add(legacy, "rec-1", 300)
	f.Fuzz(func(t *testing.T, data []byte, id string, bit int) {
		kwUnwrap(recordKEK(wrap, id), data) // must not panic, whatever the length
		if err := checkWrapped(id, data); err == nil {
			unwrap(master, wrap, id, data)
		}
		dek := goldenDEK
		copy(dek[:], data)
		blob := wrapDEK(wrap, "rec-1", dek)
		if got, err := unwrap(master, wrap, "rec-1", blob); err != nil || got != dek {
			t.Fatalf("round trip: %v", err)
		}
		if id != "rec-1" {
			if _, err := unwrap(master, wrap, id, blob); !errors.Is(err, ErrDecrypt) {
				t.Fatalf("rec-1's blob unwrapped as %q: %v", id, err)
			}
		}
		if bit < 0 {
			bit = -(bit + 1)
		}
		bit %= 8 * len(blob)
		blob[bit/8] ^= 1 << (bit % 8)
		if _, err := unwrap(master, wrap, "rec-1", blob); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("flipping bit %d: %v", bit, err)
		}
	})
}
