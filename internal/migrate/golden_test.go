package migrate

import (
	"testing"
	"time"

	"medvault/internal/frame"
)

func goldenHash(seed byte) (h [32]byte) {
	for i := range h {
		h[i] = seed + byte(i)
	}
	return h
}

// TestGoldenManifestSigningBytes pins the bytes a migration manifest's
// signature covers (they are signed and verified, never parsed).
func TestGoldenManifestSigningBytes(t *testing.T) {
	m := Manifest{
		Source: "vault-a", Target: "vault-b", Timestamp: time.Unix(0, 1190000000123456789).UTC(),
		Entries: []ManifestEntry{
			{ID: "p1-enc-0", Versions: 2, BundleHash: goldenHash(0x10), PlainHashes: [][32]byte{goldenHash(0x30), goldenHash(0x50)}},
			{ID: "p2-enc-0", Versions: 1, BundleHash: goldenHash(0x70), PlainHashes: [][32]byte{goldenHash(0x90)}},
		},
	}
	frame.CheckGolden(t, frame.Golden{
		Name: "migration manifest signing bytes",
		Hex: "000000077661756c742d61000000077661756c742d621083bab1fa12cd15000000020000000870312d656e632d300000" +
			"0002101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d" +
			"3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d" +
			"6e6f0000000870322d656e632d3000000001707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d" +
			"8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
		Encode: m.signedBytes,
	})
}
