package vcrypto

import (
	"encoding/hex"
	"testing"

	"medvault/internal/frame"
)

// goldenKeyStoreSnap holds rec-1 live and rec-2 shredded, wrapped under
// goldenMaster with the nonce of the run that captured it.
const goldenKeyStoreSnap = "4d564b53000100000001000000057265632d310000003ca6c8c3cbd53dad5cf8f93e2cf223ad819305f5b9c7d0332973" +
	"bfc6c0656fb53eb2fc95fb3c223afdac99da702890eecf57a8a442c0c8f427903acac100000001000000057265632d32"

var goldenMaster = Key{32, 31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}

// TestGoldenKeyStoreSnapshot pins the keystore snapshot layout: a loaded
// store re-serialises byte-identically and still unwraps its live key.
func TestGoldenKeyStoreSnapshot(t *testing.T) {
	want, _ := hex.DecodeString(goldenKeyStoreSnap)
	frame.CheckGolden(t, frame.Golden{
		Name: "keystore snapshot",
		Hex:  goldenKeyStoreSnap,
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
	if _, err := ks.Get("rec-1"); err != nil {
		t.Errorf("live key does not unwrap: %v", err)
	}
	if !ks.IsShredded("rec-2") || ks.Len() != 1 {
		t.Errorf("tombstone lost: shredded=%v live=%d", ks.IsShredded("rec-2"), ks.Len())
	}
}
