package worm

import (
	"testing"

	"medvault/internal/frame"
)

// TestGoldenLeafData pins the bytes the WORM baseline's Merkle log commits to.
func TestGoldenLeafData(t *testing.T) {
	var h [32]byte
	for i := range h {
		h[i] = 0x20 + byte(i)
	}
	frame.CheckGolden(t, frame.Golden{
		Name:   "worm leaf data",
		Hex:    "776f726d2f6c6561662f7631000000000870312d656e632d30202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f",
		Encode: func() []byte { return leafData("p1-enc-0", h) },
	})
}
