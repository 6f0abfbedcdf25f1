package frame

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

var (
	testVocab   = []string{"create", "read", "0a"}
	testSymbols = []string{"dr-a", "0a1b", "p1-enc-0"}
)

func TestCompactFieldsRoundTrip(t *testing.T) {
	tokens := []string{"", "dr-a", "0123456789abcdef", "abc", "ABCD", "0a", strings.Repeat("f", 300), "héllo"}
	words := []string{"create", "read", "0a", "", "policy", "beef"}
	var b []byte
	for _, v := range []uint64{0, 1, 127, 128, math.MaxUint64} {
		b = AppendUvarint(b, v)
	}
	for _, v := range []int64{0, -1, 1, math.MinInt64, math.MaxInt64} {
		b = AppendVarint(b, v)
	}
	b = AppendVarBytes(AppendVarBytes(b, []byte{1, 2, 3}), nil)
	for _, s := range tokens {
		b = AppendVarStr(b, s)
	}
	for _, s := range tokens {
		b = AppendToken(b, s)
	}
	for _, s := range words {
		b = AppendWord(b, s, testVocab)
	}
	symbols := []struct {
		s       string
		n       int
		defined bool
	}{{"", -1, false}, {"", 1, false}, {"dr-b", -1, true}, {"0a1b", 1, false}, {"beef", -1, true}, {"p1-enc-0", 2, false}}
	for _, sym := range symbols {
		b = AppendSymbol(b, sym.s, sym.n)
	}

	r := NewReader(b)
	for _, want := range []uint64{0, 1, 127, 128, math.MaxUint64} {
		if got := r.Uvarint(); got != want {
			t.Fatalf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range []int64{0, -1, 1, math.MinInt64, math.MaxInt64} {
		if got := r.Varint(); got != want {
			t.Fatalf("Varint = %d, want %d", got, want)
		}
	}
	if got := r.VarBytes(); !bytes.Equal(got, []byte{1, 2, 3}) || r.VarBytes() != nil {
		t.Fatal("VarBytes did not round-trip (an empty one is nil)")
	}
	for _, want := range tokens {
		if got := r.VarStr(); got != want {
			t.Fatalf("VarStr = %q, want %q", got, want)
		}
	}
	for _, want := range tokens {
		if got := r.Token(); got != want {
			t.Fatalf("Token = %q, want %q", got, want)
		}
	}
	for _, want := range words {
		if got := r.Word(testVocab); got != want {
			t.Fatalf("Word = %q, want %q", got, want)
		}
	}
	for _, want := range symbols {
		if got, defined := r.Symbol(testSymbols); got != want.s || defined != want.defined {
			t.Fatalf("Symbol = %q, %v; want %q, %v", got, defined, want.s, want.defined)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestVarViewAliasesItsInput: VarView reads VarBytes' field without copying
// it — the bytes it returns are the input's, capped at the field's end, so an
// append to them cannot write over the next field — and, like VarBytes, an
// empty field is nil and a length beyond the input latches ErrShort.
func TestVarViewAliasesItsInput(t *testing.T) {
	b := AppendVarBytes(AppendVarBytes(nil, []byte{1, 2, 3}), nil)
	b = append(b, 9)
	r := NewReader(b)
	got := r.VarView()
	if !bytes.Equal(got, []byte{1, 2, 3}) || &got[0] != &b[1] || cap(got) != 3 {
		t.Fatalf("VarView = %v (cap %d), want the input's bytes 1 2 3 in place", got, cap(got))
	}
	if r.VarView() != nil || r.U8() != 9 || r.Done() != nil {
		t.Fatal("an empty VarView is not nil, or the reader lost its place")
	}
	if r := NewReader([]byte{5, 1}); r.VarView() != nil || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("a field longer than its input: %v, want ErrShort", r.Err())
	}
}

// TestCompactFieldSizes pins what the compact fields are for: hex IDs cost
// half their length plus one, a vocabulary word one byte.
func TestCompactFieldSizes(t *testing.T) {
	for _, tc := range []struct {
		enc  []byte
		want int
	}{
		{AppendToken(nil, "0123456789abcdef"), 9},
		{AppendToken(nil, "a1b2c3d4e5f6"), 7},
		{AppendToken(nil, "dr-house"), 9},
		{AppendToken(nil, ""), 1},
		{AppendWord(nil, "read", testVocab), 1},
		{AppendWord(nil, "policy", testVocab), 8},
		{AppendVarBytes(nil, make([]byte, 32)), 33},
		{AppendVarStr(nil, "p1-enc-0"), 9},
		{AppendUvarint(nil, 2), 1},
		{AppendSymbol(nil, "", 5), 1},
		{AppendSymbol(nil, "dr-house", -1), 10},
		{AppendSymbol(nil, "dr-house", 125), 1},
		{AppendSymbol(nil, "dr-house", 126), 2},
	} {
		if len(tc.enc) != tc.want {
			t.Errorf("%x: %d bytes, want %d", tc.enc, len(tc.enc), tc.want)
		}
	}
}

// TestCompactFieldsRejectOtherEncodings: each value has one encoding, so a
// re-encoded event is byte-identical to what was read.
func TestCompactFieldsRejectOtherEncodings(t *testing.T) {
	type input struct {
		in   []byte
		read func(*Reader)
	}
	for name, tc := range map[string]input{
		"padded varint":        {[]byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }},
		"overlong varint":      {bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }},
		"unpacked hex token":   {append([]byte{4 << 1}, "0a1b"...), func(r *Reader) { r.Token() }},
		"empty packed token":   {[]byte{1}, func(r *Reader) { r.Token() }},
		"word beyond vocab":    {[]byte{4}, func(r *Reader) { r.Word(testVocab) }},
		"spelled-out word":     {append([]byte{0, 4 << 1}, "read"...), func(r *Reader) { r.Word(testVocab) }},
		"spelled-out hex word": {[]byte{0, 1<<1 | 1, 0x0a}, func(r *Reader) { r.Word(testVocab) }},
		"symbol beyond table":  {[]byte{5}, func(r *Reader) { r.Symbol(testSymbols) }},
		"empty symbol defined": {[]byte{1, 0}, func(r *Reader) { r.Symbol(testSymbols) }},
		"unpacked hex symbol":  {append([]byte{1, 4 << 1}, "0a1b"...), func(r *Reader) { r.Symbol(testSymbols) }},
	} {
		r := NewReader(tc.in)
		tc.read(r)
		if err := r.Err(); err == nil || errors.Is(err, ErrShort) {
			t.Errorf("%s: Err = %v, want a non-short error", name, err)
		}
	}
	for name, tc := range map[string]input{
		"truncated varint":  {[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		"hostile length":    {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, func(r *Reader) { r.VarBytes() }},
		"hostile str len":   {[]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'a'}, func(r *Reader) { r.VarStr() }},
		"token past input":  {[]byte{10 << 1, 'a'}, func(r *Reader) { r.Token() }},
		"packed past input": {[]byte{3<<1 | 1, 0xab}, func(r *Reader) { r.Token() }},
		"symbol past input": {[]byte{1, 4 << 1, 'd'}, func(r *Reader) { r.Symbol(testSymbols) }},
	} {
		r := NewReader(tc.in)
		tc.read(r)
		if !errors.Is(r.Err(), ErrShort) {
			t.Errorf("%s: Err = %v, want ErrShort", name, r.Err())
		}
	}
}

// FuzzCompactFields: any bytes a script of compact reads accepts whole
// re-encode, field by field, to exactly those bytes. A symbol is read against
// a fixed table, and one written out must not be in it (the rule the event
// log's sequential reader applies).
func FuzzCompactFields(f *testing.F) {
	f.Add(AppendWord(AppendToken(AppendUvarint(nil, 300), "0a1b"), "read", testVocab), []byte{0, 3, 4})
	f.Add(AppendVarBytes(AppendVarint(nil, -5), []byte("xy")), []byte{1, 2})
	f.Add([]byte{}, []byte{3})
	f.Add(AppendSymbol(AppendSymbol(AppendSymbol(nil, "", -1), "x-1", -1), "0a1b", 1), []byte{5, 5, 5})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		r := NewReader(data)
		var out []byte
		for _, op := range script {
			switch op % 6 {
			case 0:
				out = AppendUvarint(out, r.Uvarint())
			case 1:
				out = AppendVarint(out, r.Varint())
			case 2:
				out = AppendVarBytes(out, r.VarBytes())
			case 3:
				out = AppendToken(out, r.Token())
			case 4:
				out = AppendWord(out, r.Word(testVocab), testVocab)
			case 5:
				s, defined := r.Symbol(testSymbols)
				n := slices.Index(testSymbols, s)
				if defined && n >= 0 {
					return // a known value written out: the log's reader refuses it
				}
				out = AppendSymbol(out, s, n)
			}
		}
		if r.Done() == nil && !bytes.Equal(out, data) {
			t.Fatalf("accepted %x but re-encodes to %x", data, out)
		}
	})
}
