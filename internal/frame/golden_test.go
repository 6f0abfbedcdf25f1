package frame

import (
	"fmt"
	"slices"
	"testing"
)

type framed struct {
	Seq  uint64
	Data []byte
}

// decodeOne is a golden Decode: the input must be exactly one frame.
func decodeOne(f Format) func([]byte) (any, error) {
	return func(b []byte) (any, error) {
		var out []framed
		if _, err := f.Walk(b, func(_ int, seq uint64, p []byte) error {
			out = append(out, framed{seq, slices.Clone(p)})
			return nil
		}); err != nil {
			return nil, err
		}
		if len(out) != 1 {
			return nil, fmt.Errorf("%w: %d frames, want 1", ErrInvalid, len(out))
		}
		return out[0], nil
	}
}

// TestGoldenFrames pins the three frame headers. The block vector was
// captured from blockstore's own frame encoder before blockstore moved onto
// this package, the seq vector from Append as it stood then, and the var
// vectors from Append when flight segments moved onto Var.
func TestGoldenFrames(t *testing.T) {
	CheckGolden(t,
		Golden{
			Name:    "block frame",
			Hex:     "b10000000e3f4b1b1e6d65647661756c7420626c6f636b",
			Encode:  func() []byte { return Block.Append(nil, 0, []byte("medvault block")) },
			Decode:  decodeOne(Block),
			Want:    framed{0, []byte("medvault block")},
			Corrupt: ErrInvalid,
		},
		Golden{
			Name:    "empty block frame",
			Hex:     "b10000000000000000",
			Encode:  func() []byte { return Block.Append(nil, 0, nil) },
			Decode:  decodeOne(Block),
			Want:    framed{0, []byte{}},
			Corrupt: ErrInvalid,
		},
		Golden{
			Name:    "seq frame",
			Hex:     "00000000000000070000000eb52880786d65647661756c74206672616d65",
			Encode:  func() []byte { return Seq.Append(nil, 7, []byte("medvault frame")) },
			Decode:  decodeOne(Seq),
			Want:    framed{7, []byte("medvault frame")},
			Corrupt: ErrInvalid,
		},
		Golden{
			Name:    "var frame",
			Hex:     "0eb52880786d65647661756c74206672616d65",
			Encode:  func() []byte { return Var.Append(nil, 7, []byte("medvault frame")) },
			Decode:  decodeOne(Var),
			Want:    framed{0, []byte("medvault frame")},
			Corrupt: ErrInvalid,
		},
		Golden{
			Name:    "empty var frame",
			Hex:     "0000000000",
			Encode:  func() []byte { return Var.Append(nil, 0, nil) },
			Decode:  decodeOne(Var),
			Want:    framed{0, []byte{}},
			Corrupt: ErrInvalid,
		},
	)
}
