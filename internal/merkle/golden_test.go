package merkle

import (
	"testing"
	"time"

	"medvault/internal/frame"
)

// TestGoldenEncodings pins the leaf-hash list stored in meta.snap and the
// bytes a signed tree head's signature covers.
func TestGoldenEncodings(t *testing.T) {
	var a, b Hash
	for i := range a {
		a[i], b[i] = byte(i), 0x80+byte(i)
	}
	frame.CheckGolden(t,
		frame.Golden{
			Name: "leaf hash list",
			Hex: "00000002000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f808182838485868788898a8b" +
				"8c8d8e8f909192939495969798999a9b9c9d9e9f",
			Encode: func() []byte { return EncodeHashes([]Hash{a, b}) },
			Decode: func(p []byte) (any, error) { return DecodeHashes(p) },
			Want:   []Hash{a, b},
		},
		frame.Golden{
			Name: "signed tree head bytes",
			Hex: "6d65647661756c742f7374682f7631000000000000000003000102030405060708090a0b0c0d0e0f1011121314151617" +
				"18191a1b1c1d1e1f1083bab1fa12cd15",
			Encode: func() []byte { return sthBytes(3, a, time.Unix(0, 1190000000123456789).UTC()) },
		},
	)
}
