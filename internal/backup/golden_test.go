package backup

import (
	"testing"
	"time"

	"medvault/internal/frame"
	"medvault/internal/vcrypto"
)

func goldenHash(seed byte) (h [32]byte) {
	for i := range h {
		h[i] = seed + byte(i)
	}
	return h
}

// TestGoldenArchive pins the signed manifest bytes, the stored manifest, and
// the archive container around it.
func TestGoldenArchive(t *testing.T) {
	m := Manifest{
		System: "vault-a", Timestamp: time.Unix(0, 1190000000123456789).UTC(), Full: true,
		BaseStamp: time.Unix(0, 1180000000000000000).UTC(),
		Entries: []Entry{
			{ID: "p1-enc-0", Versions: 2, SealedHash: goldenHash(0x10)},
			{ID: "p2-enc-0", Versions: 1, SealedHash: goldenHash(0x40)},
		},
		SourceKey: vcrypto.PublicKey{0xb1, 0xb2}, Signature: []byte{0xc1, 0xc2, 0xc3},
	}
	arch := &Archive{Manifest: m, Sealed: map[string][]byte{"p1-enc-0": {0xe1, 0xe2}, "p2-enc-0": {0xe3}}}
	frame.CheckGolden(t,
		frame.Golden{
			Name: "backup manifest signing bytes",
			Hex: "000000077661756c742d611083bab1fa12cd1501106033bf82f60000000000020000000870312d656e632d3000000002" +
				"101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f0000000870322d656e632d3000000001" +
				"404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f",
			Encode: m.signedBytes,
		},
		frame.Golden{
			Name: "backup manifest",
			Hex: "000000077661756c742d611083bab1fa12cd1501106033bf82f60000000000020000000870312d656e632d3000000002" +
				"101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f0000000870322d656e632d3000000001" +
				"404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f00000002b1b200000003c1c2c3",
			Encode:  func() []byte { return encodeManifest(m) },
			Decode:  func(b []byte) (any, error) { return decodeManifest(b) },
			Want:    m,
			Corrupt: ErrArchiveInvalid,
		},
		frame.Golden{
			Name: "backup archive",
			Hex: "4d56424b0000008d000000077661756c742d611083bab1fa12cd1501106033bf82f60000000000020000000870312d65" +
				"6e632d3000000002101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f0000000870322d65" +
				"6e632d3000000001404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f00000002b1b20000" +
				"0003c1c2c3000000020000000870312d656e632d3000000002e1e20000000870322d656e632d3000000001e3",
			Encode:  func() []byte { return Encode(arch) },
			Decode:  func(b []byte) (any, error) { return Decode(b) },
			Want:    arch,
			Corrupt: ErrArchiveInvalid,
		},
	)
}
