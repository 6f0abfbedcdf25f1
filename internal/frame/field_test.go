package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFieldRoundTrip(t *testing.T) {
	ts := time.Unix(0, 1190000000123456789).UTC()
	b := []byte{7}
	b = binary.BigEndian.AppendUint16(b, 0x0102)
	b = binary.BigEndian.AppendUint32(b, 0x03040506)
	b = binary.BigEndian.AppendUint64(b, 0x0708090a0b0c0d0e)
	b = AppendTime(b, ts)
	b = AppendStr(b, "héllo")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBytes(b, nil)
	b = append(b, "fixd"...)
	b = AppendCount(b, 2)
	b = AppendStr(AppendStr(b, "a"), "b")

	r := NewReader(b)
	var fixed [4]byte
	if r.U8() != 7 || r.U16() != 0x0102 || r.U32() != 0x03040506 || r.U64() != 0x0708090a0b0c0d0e {
		t.Fatal("fixed ints did not round-trip")
	}
	if got := r.Time(); !got.Equal(ts) || got.Location() != time.UTC {
		t.Fatalf("Time = %v, want %v UTC", got, ts)
	}
	if r.Str() != "héllo" || !bytes.Equal(r.Bytes(), []byte{1, 2, 3}) || r.Bytes() != nil {
		t.Fatal("length-prefixed fields did not round-trip (an empty Bytes is nil)")
	}
	if r.Fixed(fixed[:]); string(fixed[:]) != "fixd" {
		t.Fatalf("Fixed = %q", fixed)
	}
	if n := r.Count(4); n != 2 || r.Str() != "a" || r.Str() != "b" {
		t.Fatal("counted strings did not round-trip")
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done after consuming everything: %v", err)
	}
}

func TestMagic(t *testing.T) {
	r := NewReader([]byte("MVR1x"))
	if r.Magic("MVXB") || r.Err() != nil {
		t.Fatalf("mismatched magic: matched or latched (%v)", r.Err())
	}
	if r = NewReader([]byte("MVR1x")); !r.Magic("MVR1") || r.U8() != 'x' || r.Done() != nil {
		t.Fatal("matching magic not consumed exactly")
	}
	if r = NewReader([]byte("MV")); r.Magic("MVR1") || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("short magic: Err = %v", r.Err())
	}
}

func TestShortReadLatches(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 9, 'x'})
	if s := r.Str(); s != "" {
		t.Fatalf("short Str = %q", s)
	}
	first := r.Err()
	if !errors.Is(first, ErrShort) || !strings.Contains(first.Error(), "offset 4") {
		t.Fatalf("Err = %v, want ErrShort naming offset 4", first)
	}
	// Every later read is a zero value and the first error stands.
	dst := []byte{0xee}
	r.Fixed(dst)
	if r.U8() != 0 || r.U64() != 0 || r.Bytes() != nil || r.Count(1) != 0 || dst[0] != 0xee {
		t.Fatal("reads after a short read returned data")
	}
	if r.Err() != first || r.Done() != first {
		t.Fatalf("latched error changed: %v / %v", r.Err(), r.Done())
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U8()
	if r.Err() != nil {
		t.Fatal("Err set without a short read")
	}
	if err := r.Done(); err == nil || errors.Is(err, ErrShort) {
		t.Fatalf("Done with a trailing byte = %v, want a non-short error", err)
	}
}

func TestCountBoundsAllocation(t *testing.T) {
	hostile := binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF)
	hostile = append(hostile, make([]byte, 7)...)
	r := NewReader(hostile)
	if n := r.Count(4); n != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("Count(4) over 7 bytes = %d, %v", n, r.Err())
	}
	r = NewReader(append(binary.BigEndian.AppendUint32(nil, 2), make([]byte, 8)...))
	if n := r.Count(4); n != 2 || r.Err() != nil {
		t.Fatalf("Count(4) = %d, %v; want 2 (2×4 fits in 8)", n, r.Err())
	}
	r = NewReader(append(binary.BigEndian.AppendUint32(nil, 3), make([]byte, 8)...))
	if n := r.Count(4); n != 0 || r.Err() == nil {
		t.Fatalf("Count(4) = %d; want 0 (3×4 exceeds 8)", n)
	}
}

func TestBytesDoNotAliasInput(t *testing.T) {
	in := AppendBytes(nil, []byte("abc"))
	got := NewReader(in).Bytes()
	in[4] = 'x'
	if string(got) != "abc" {
		t.Fatal("Bytes aliases the input")
	}
}

// FuzzFieldReader drives a Reader with an arbitrary call sequence over
// arbitrary bytes against a straightforward model: no panic, every value
// equals the model's, Err is set exactly when a read ran short, and nothing
// returned aliases the input.
func FuzzFieldReader(f *testing.F) {
	f.Add(AppendStr(AppendBytes([]byte{1, 0, 2}, []byte("xy")), "z"), []byte{0, 1, 4, 5})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0}, []byte{7, 4, 0})
	f.Add([]byte{}, []byte{3})
	f.Add(bytes.Repeat([]byte{0, 0, 0, 1}, 8), []byte{7, 1, 5, 6, 3, 8, 2})

	f.Fuzz(func(t *testing.T, data, script []byte) {
		orig := append([]byte(nil), data...)
		r := NewReader(data)
		off, short := 0, false
		// need advances the model; it reports whether n bytes were there.
		need := func(n int) ([]byte, bool) {
			if short || n > len(orig)-off {
				short = true
				return nil, false
			}
			p := orig[off : off+n]
			off += n
			return p, true
		}
		lenPrefixed := func() []byte {
			lp, ok := need(4)
			if !ok {
				return nil
			}
			p, _ := need(int(binary.BigEndian.Uint32(lp)))
			return p
		}
		for i := 0; i < len(script); i++ {
			switch script[i] % 9 {
			case 0:
				p, ok := need(1)
				if got := r.U8(); ok && got != p[0] || !ok && got != 0 {
					t.Fatalf("U8 = %d", got)
				}
			case 1:
				p, ok := need(2)
				if got := r.U16(); ok && got != binary.BigEndian.Uint16(p) || !ok && got != 0 {
					t.Fatalf("U16 = %d", got)
				}
			case 2:
				p, ok := need(4)
				if got := r.U32(); ok && got != binary.BigEndian.Uint32(p) || !ok && got != 0 {
					t.Fatalf("U32 = %d", got)
				}
			case 3, 8:
				p, ok := need(8)
				var want uint64
				if ok {
					want = binary.BigEndian.Uint64(p)
				}
				if script[i]%9 == 3 {
					if got := r.U64(); got != want {
						t.Fatalf("U64 = %d, want %d", got, want)
					}
				} else if got := r.Time(); got.UnixNano() != int64(want) {
					t.Fatalf("Time = %v, want %d ns", got, int64(want))
				}
			case 4:
				want := lenPrefixed()
				got := r.Bytes()
				if !bytes.Equal(got, want) {
					t.Fatalf("Bytes = %x, want %x", got, want)
				}
				for j := range got {
					got[j] ^= 0xff // must not write through to the input
				}
			case 5:
				if want, got := lenPrefixed(), r.Str(); got != string(want) {
					t.Fatalf("Str = %q, want %q", got, want)
				}
			case 6:
				i++
				if i == len(script) {
					return
				}
				dst := bytes.Repeat([]byte{0xee}, int(script[i]))
				want, ok := need(len(dst))
				if !ok {
					want = bytes.Repeat([]byte{0xee}, len(dst)) // untouched
				}
				if r.Fixed(dst); !bytes.Equal(dst, want) {
					t.Fatalf("Fixed = %x, want %x", dst, want)
				}
			case 7:
				i++
				if i == len(script) {
					return
				}
				min := int(script[i])
				want := 0
				if p, ok := need(4); ok {
					n := binary.BigEndian.Uint32(p)
					if uint64(n)*uint64(min) > uint64(len(orig)-off) {
						short = true
					} else {
						want = int(n)
					}
				}
				if got := r.Count(min); got != want {
					t.Fatalf("Count(%d) = %d, want %d", min, got, want)
				}
			}
			if (r.Err() != nil) != short {
				t.Fatalf("after op %d: Err = %v, model short = %v", script[i]%9, r.Err(), short)
			}
			if short && !errors.Is(r.Err(), ErrShort) {
				t.Fatalf("Err = %v does not wrap ErrShort", r.Err())
			}
		}
		if !bytes.Equal(data, orig) {
			t.Fatal("reading modified the input")
		}
		if err := r.Done(); (err == nil) != (!short && off == len(orig)) {
			t.Fatalf("Done = %v with short=%v, %d of %d bytes consumed", err, short, off, len(orig))
		}
	})
}
