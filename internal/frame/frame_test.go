package frame

import (
	"bytes"
	"errors"
	"testing"
)

var formats = map[string]Format{"seq": Seq, "block": Block, "var": Var}

func TestRoundTrip(t *testing.T) {
	for name, f := range formats {
		var buf []byte
		payloads := [][]byte{[]byte("first"), {}, []byte("a longer third payload")}
		for i, p := range payloads {
			buf = f.Append(buf, uint64(i), p)
		}
		off := 0
		for i, p := range payloads {
			seq, data, n, err := f.Decode(buf[off:])
			if err != nil {
				t.Fatalf("%s frame %d: %v", name, i, err)
			}
			if f == Seq && seq != uint64(i) || f != Seq && seq != 0 || !bytes.Equal(data, p) {
				t.Fatalf("%s frame %d: got seq=%d data=%q, want data=%q", name, i, seq, data, p)
			}
			h, err := f.Header(buf[off:])
			if err != nil || f.Overhead()+int(h.Len) != n {
				t.Fatalf("%s frame %d: Header = %+v, %v; want a %d-byte frame", name, i, h, err, n)
			}
			off += n
		}
		if off != len(buf) {
			t.Fatalf("%s: decoded %d of %d bytes", name, off, len(buf))
		}
	}
}

func TestTornTail(t *testing.T) {
	for name, f := range formats {
		full := f.Append(nil, 7, []byte("payload"))
		for cut := 0; cut < len(full); cut++ {
			if _, _, _, err := f.Decode(full[:cut]); !errors.Is(err, ErrInvalid) {
				t.Fatalf("%s: decode of %d/%d bytes: %v, want ErrInvalid", name, cut, len(full), err)
			}
		}
	}
}

func TestCorruptPayload(t *testing.T) {
	for name, f := range formats {
		full := f.Append(nil, 7, []byte("payload"))
		full[len(full)-1] ^= 0xff
		if _, _, _, err := f.Decode(full); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: decode accepted a corrupt payload: %v", name, err)
		}
	}
	badMagic := Block.Append(nil, 0, []byte("payload"))
	badMagic[0] ^= 1
	if _, err := Block.Header(badMagic); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Header accepted magic 0x%02x: %v", badMagic[0], err)
	}
}

func TestDecodeCopies(t *testing.T) {
	for name, f := range formats {
		buf := f.Append(nil, 1, []byte("abc"))
		_, data, _, err := f.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		buf[f.Overhead()] = 'x'
		if string(data) != "abc" {
			t.Fatalf("%s: decoded data aliases the input buffer", name)
		}
	}
}

// TestWalkStopsAtFirstBadFrame is the tail rule: the valid prefix ends at
// the first frame that is torn or fails its CRC, even when whole frames
// follow it, and a refusal by fn ends it at that frame.
func TestWalkStopsAtFirstBadFrame(t *testing.T) {
	for name, f := range formats {
		var img []byte
		var ends []int
		for _, p := range []string{"one", "two", "three"} {
			img = f.Append(img, uint64(len(ends)), []byte(p))
			ends = append(ends, len(img))
		}
		var seen []string
		collect := func(off int, _ uint64, p []byte) error {
			seen = append(seen, string(p))
			return nil
		}
		if valid, err := f.Walk(img, collect); valid != len(img) || err != nil || len(seen) != 3 {
			t.Fatalf("%s: whole image: valid=%d err=%v frames=%q", name, valid, err, seen)
		}

		bad := bytes.Clone(img)
		bad[ends[0]+f.Overhead()] ^= 1 // the second frame's payload
		seen = nil
		valid, err := f.Walk(bad, collect)
		if valid != ends[0] || !errors.Is(err, ErrInvalid) || len(seen) != 1 {
			t.Fatalf("%s: bad second frame: valid=%d err=%v frames=%q, want %d, ErrInvalid, 1 frame", name, valid, err, seen, ends[0])
		}

		valid, err = f.Walk(img[:ends[1]+2], collect)
		if valid != ends[1] || !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: torn tail: valid=%d err=%v, want %d", name, valid, err, ends[1])
		}

		stop := errors.New("stop")
		valid, err = f.Walk(img, func(off int, _ uint64, _ []byte) error {
			if off == ends[1] {
				return stop
			}
			return nil
		})
		if valid != ends[1] || err != stop {
			t.Fatalf("%s: refused third frame: valid=%d err=%v, want %d, stop", name, valid, err, ends[1])
		}
	}
}

// FuzzBlockFrame holds the block frame decoder to the rules a medium byte
// image demands (checkFrames).
func FuzzBlockFrame(f *testing.F) {
	f.Add(Block.Append(nil, 0, []byte("medvault block")))
	f.Add(Block.Append(Block.Append(nil, 0, nil), 0, bytes.Repeat([]byte{0xB1}, 40)))
	f.Add([]byte{0xB1, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})
	f.Add(Seq.Append(nil, 3, []byte("not a block")))
	f.Fuzz(func(t *testing.T, data []byte) { checkFrames(t, Block, data) })
}

// FuzzVarFrame holds the Var frame decoder to the same rules; its uvarint
// length also has one encoding, so a padded or overlong one is refused.
func FuzzVarFrame(f *testing.F) {
	f.Add(Var.Append(nil, 0, []byte("medvault frame")))
	f.Add(Var.Append(Var.Append(nil, 0, nil), 0, bytes.Repeat([]byte{0xF3}, 200)))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0, 0, 1})
	f.Add([]byte{0x80, 0x00, 0, 0, 0, 0})
	f.Add(Block.Append(nil, 0, []byte("not a var frame")))
	f.Fuzz(func(t *testing.T, data []byte) { checkFrames(t, Var, data) })
}

// checkFrames holds a decoder of format fm to the rules a medium byte image
// demands: no panic, no allocation sized by a length field beyond the input
// that holds it, and every frame it accepts re-encodes to exactly the bytes
// it came from.
func checkFrames(t *testing.T, fm Format, data []byte) {
	// Walk reads every length field and allocates nothing; Decode allocates
	// one payload copy, no larger than the input that holds it.
	walk := func() { fm.Walk(data, func(int, uint64, []byte) error { return nil }) }
	if allocs := testing.AllocsPerRun(10, walk); allocs != 0 {
		t.Fatalf("Walk of %d bytes made %v allocations", len(data), allocs)
	}
	decode := func() { fm.Decode(data) }
	_, got, n, err := fm.Decode(data)
	if allocs := testing.AllocsPerRun(10, decode); allocs > 1 || cap(got) > 2*len(data)+8 {
		t.Fatalf("Decode of %d bytes made %v allocations, the payload's of capacity %d", len(data), allocs, cap(got))
	}
	if err == nil {
		if re := fm.Append(nil, 0, got); !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted frame re-encodes as %x, was %x", re, data[:n])
		}
	}
	var re []byte
	valid, err := fm.Walk(data, func(_ int, _ uint64, p []byte) error {
		re = fm.Append(re, 0, p)
		return nil
	})
	if !bytes.Equal(re, data[:valid]) {
		t.Fatalf("valid prefix %x re-encodes as %x", data[:valid], re)
	}
	if (err == nil) != (valid == len(data)) || err != nil && !errors.Is(err, ErrInvalid) {
		t.Fatalf("Walk: valid=%d of %d, err=%v", valid, len(data), err)
	}
}

// TestReadAtBoundsByCommittedBytes: ReadAt reads back the frame at an
// offset, and refuses, as ErrInvalid and without reading past them, an
// offset or a length that leaves the committed bytes.
func TestReadAtBoundsByCommittedBytes(t *testing.T) {
	for name, f := range formats {
		buf := f.Append(f.Append(nil, 7, []byte("first")), 8, []byte("second"))
		second := int64(f.Overhead() + len("first"))
		r := bytes.NewReader(buf)
		if h, p, err := f.ReadAt(r, second, int64(len(buf))); err != nil || string(p) != "second" || f == Seq && h.Seq != 8 {
			t.Fatalf("%s: ReadAt = %+v, %q, %v", name, h, p, err)
		}
		for what, at := range map[string][2]int64{
			"a negative offset":          {-1, int64(len(buf))},
			"an offset past the end":     {int64(len(buf)), int64(len(buf))},
			"a frame past the committed": {second, int64(len(buf)) - 1},
		} {
			if _, _, err := f.ReadAt(r, at[0], at[1]); !errors.Is(err, ErrInvalid) {
				t.Errorf("%s, %s: %v, want ErrInvalid", name, what, err)
			}
		}
	}
}
