package blockstore

import (
	"fmt"
	"testing"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
)

// TestGoldenSegment pins a segment this package writes: one frame.Var frame
// per block, under a v2 segment name. Decode opens a store holding the bytes
// as its one segment and requires exactly one whole block, so every cut
// (which recovery would trim as a torn tail) and the one-trailing-byte
// extension are refused.
func TestGoldenSegment(t *testing.T) {
	block := []byte("medvault block")
	frame.CheckGolden(t, frame.Golden{
		Name: "v2 block segment",
		Hex:  "0e3f4b1b1e6d65647661756c7420626c6f636b",
		Encode: func() []byte {
			s := NewMemory(0)
			defer s.Close()
			if _, err := s.Append(block); err != nil {
				t.Fatal(err)
			}
			raw, _ := s.ReadRaw()
			return raw
		},
		Decode: func(b []byte) (any, error) {
			mem := faultfs.NewMem()
			if err := mem.WriteFile("s/"+SegmentName(0), b, 0o600); err != nil {
				return nil, err
			}
			s, err := OpenFileFS(mem, "s", 0)
			if err != nil {
				return nil, err
			}
			defer s.Close()
			var blocks [][]byte
			if err := s.Scan(func(_ Ref, data []byte) error { blocks = append(blocks, data); return nil }); err != nil {
				return nil, err
			}
			if len(blocks) != 1 || s.StorageBytes() != int64(len(b)) {
				return nil, fmt.Errorf("%w: %d blocks in %d of %d bytes; want one whole block", ErrCorrupt, len(blocks), s.StorageBytes(), len(b))
			}
			return blocks[0], nil
		},
		Want:    block,
		Corrupt: ErrCorrupt,
	})
}
