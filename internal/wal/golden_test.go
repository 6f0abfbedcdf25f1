package wal

import (
	"fmt"
	"slices"
	"testing"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
)

// TestGoldenFile pins a meta.wal this package writes: the layout marker, a
// frame.Seq frame with sequence number 0, then one frame.Var frame per
// entry. Decode requires exactly one whole entry after the marker, so every
// cut and the one-trailing-byte extension are refused.
func TestGoldenFile(t *testing.T) {
	const path = "w/meta.wal"
	entry := []byte("medvault wal entry")
	frame.CheckGolden(t, frame.Golden{
		Name: "meta.wal v2 file",
		Hex:  "000000000000000000000004c6a89c2f2176617212bc7fd0cb6d65647661756c742077616c20656e747279",
		Encode: func() []byte {
			mem := faultfs.NewMem()
			l, err := OpenFS(mem, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(entry); err != nil {
				t.Fatal(err)
			}
			l.Close()
			data, _ := mem.ReadFile(path)
			return data
		},
		Decode: func(b []byte) (any, error) {
			var entries [][]byte
			varFrom, valid, err := walk(b, func(e Entry) error {
				entries = append(entries, slices.Clone(e.Data))
				return nil
			})
			switch {
			case err != nil:
				return nil, err
			case varFrom == 0 || valid != int64(len(b)) || len(entries) != 1:
				return nil, fmt.Errorf("%w: %d entries in %d of %d bytes, layout marker %v; want one whole entry after the marker",
					ErrCorrupt, len(entries), valid, len(b), varFrom > 0)
			}
			return entries[0], nil
		},
		Want:    entry,
		Corrupt: ErrCorrupt,
	})
}
