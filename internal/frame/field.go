package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"
)

// ErrShort is the field codec's decoding failure for input that ends too
// soon: a read, or a count's worth of minimum-size elements, needed more
// bytes than the input holds. The only other failure is a value not in its
// one encoding (Reader.Fail). Format decoders wrap either in their own
// corruption sentinel.
var ErrShort = errors.New("frame: short field read")

// AppendStr appends s as u32 length | bytes.
func AppendStr(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

// AppendBytes appends p as u32 length | bytes.
func AppendBytes(b, p []byte) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(p))), p...)
}

// AppendCount appends an element count as the u32 Reader.Count reads back.
func AppendCount(b []byte, n int) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(n))
}

// AppendTime appends t as i64 Unix nanoseconds.
func AppendTime(b []byte, t time.Time) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(t.UnixNano()))
}

// The compact fields below are for event logs, whose per-event bytes are the
// whole cost: a uvarint where a fixed int would mostly hold zeros, a
// uvarint-length byte or string field, a Token for strings the vault often
// mints as hex, a Word for strings drawn from a fixed vocabulary, and a
// Symbol for strings a log repeats. Each has exactly one encoding of a given
// value (for a Symbol, given the log's table), and the Reader refuses any
// other.

// AppendUvarint appends v as a base-128 varint (encoding/binary's layout).
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v zig-zag encoded as a uvarint, so small magnitudes of
// either sign stay short.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendVarBytes appends p as uvarint length | bytes.
func AppendVarBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendVarStr appends s as uvarint length | bytes.
func AppendVarStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendToken appends s as a uvarint header len<<1|packed and then its bytes.
// A non-empty s of even length made only of lowercase hex digits is packed:
// the bytes it spells are stored, half its length. Trace IDs and record
// tokens are such strings.
func AppendToken(b []byte, s string) []byte {
	if !IsPackedHex(s) {
		return append(binary.AppendUvarint(b, uint64(len(s))<<1), s...)
	}
	return AppendPackedHex(binary.AppendUvarint(b, uint64(len(s)/2)<<1|1), s)
}

// AppendPackedHex appends the bytes s spells, with no header: a Token's
// packed body, for a field whose layout fixes its length. IsPackedHex(s)
// must hold.
func AppendPackedHex(b []byte, s string) []byte {
	for i := 0; i < len(s); i += 2 {
		b = append(b, hexValue[s[i]]<<4|hexValue[s[i+1]])
	}
	return b
}

// hexValue maps a lowercase hex digit to its value and every other byte to
// 0xFF: a table, because random IDs make a digit-or-letter branch a coin toss.
var hexValue = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xFF
	}
	for i, c := range "0123456789abcdef" {
		t[c] = byte(i)
	}
	return t
}()

// AppendWord appends s as its 1-based position in vocab, or as 0 and a Token
// when vocab lacks it. A vocabulary is part of its format: it may only grow at
// the end.
func AppendWord(b []byte, s string, vocab []string) []byte {
	i := WordIndex(s, vocab)
	if b = binary.AppendUvarint(b, i); i == 0 {
		b = AppendToken(b, s)
	}
	return b
}

// WordIndex is the header AppendWord writes for s: its 1-based position in
// vocab, or 0 when vocab lacks it and s follows as a Token.
func WordIndex(s string, vocab []string) uint64 { return uint64(slices.Index(vocab, s) + 1) }

// AppendSymbol appends s as a symbol field: a value an event log writes out
// once and refers to by number after. n is s's number in the log's table for
// the field, or negative when the table does not hold s yet. The header is a
// uvarint: 0 for "", which is never numbered; 1 and then s as a Token for the
// occurrence that defines s (it takes the table's next number); n+2 for a
// reference.
func AppendSymbol(b []byte, s string, n int) []byte {
	switch {
	case s == "":
		return append(b, 0)
	case n < 0:
		return AppendToken(append(b, 1), s)
	}
	return binary.AppendUvarint(b, uint64(n)+2)
}

// IsPackedHex reports whether AppendToken packs s: a non-empty, even-length
// string of lowercase hex digits.
func IsPackedHex(s string) bool {
	if s == "" || len(s)%2 != 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if hexValue[s[i]] > 0xF {
			return false
		}
	}
	return true
}

// Reader is a cursor over one encoded value. The first read that runs short
// latches an error naming its byte offset, and every later read returns the
// zero value without advancing, so a decoder parses straight-line and checks
// Err or Done once. Only VarView, View and Since return bytes of its input.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader positioned at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// take consumes the next n bytes and returns them still aliasing the input;
// nil once the Reader is bad.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d, %d remain", ErrShort, n, r.off, len(r.b)-r.off)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if p := r.take(2); p != nil {
		return binary.BigEndian.Uint16(p)
	}
	return 0
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if p := r.take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if p := r.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// Time reads i64 Unix nanoseconds as a UTC time.
func (r *Reader) Time() time.Time { return time.Unix(0, int64(r.U64())).UTC() }

// Bytes reads a u32-length-prefixed byte field into a fresh slice (nil when
// the field is empty).
func (r *Reader) Bytes() []byte {
	return append([]byte(nil), r.take(int(r.U32()))...)
}

// Str reads a u32-length-prefixed string.
func (r *Reader) Str() string { return string(r.take(int(r.U32()))) }

// Fail latches a malformed-field error unless one is already latched: the
// compact fields' own rule breaks, and a format decoder's for a value its
// layout gives one encoding (frame: prefixes the message).
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("frame: "+format, args...)
	}
}

// Uvarint reads a base-128 varint in its shortest form; a truncated, overlong
// or padded one latches an error.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n == 0:
		r.err = fmt.Errorf("%w: varint at offset %d runs past the end", ErrShort, r.off)
	case n < 0 || (n > 1 && r.b[r.off+n-1] == 0):
		r.Fail("malformed varint at offset %d", r.off)
	default:
		r.off += n
	}
	return v
}

// Varint reads what AppendVarint wrote.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// VarBytes reads a uvarint-length-prefixed byte field into a fresh slice (nil
// when the field is empty). A length beyond the input latches ErrShort before
// anything is allocated.
func (r *Reader) VarBytes() []byte {
	return append([]byte(nil), r.take(int(r.Uvarint()))...)
}

// VarView is VarBytes without the copy: the field in place, capped at its
// end (nil when empty), for a caller that keeps it no longer than the input.
func (r *Reader) VarView() []byte {
	if p := r.take(int(r.Uvarint())); len(p) > 0 {
		return p[:len(p):len(p)]
	}
	return nil
}

// VarStr reads what AppendVarStr wrote; like VarBytes, it bounds the length
// by the input before allocating.
func (r *Reader) VarStr() string { return string(r.take(int(r.Uvarint()))) }

// Token reads what AppendToken wrote.
func (r *Reader) Token() string {
	at := r.off
	h := r.Uvarint()
	p := r.take(int(h >> 1))
	switch {
	case r.err != nil:
		return ""
	case h&1 == 0:
		s := string(p)
		if IsPackedHex(s) {
			r.Fail("unpacked hex token at offset %d", at)
			return ""
		}
		return s
	case len(p) == 0:
		r.Fail("empty packed token at offset %d", at)
		return ""
	}
	return hexString(p)
}

// PackedHex reads what AppendPackedHex wrote of a 2n-digit string: n bytes,
// spelled back as lowercase hex.
func (r *Reader) PackedHex(n int) string {
	if p := r.take(n); p != nil {
		return hexString(p)
	}
	return ""
}

// hexString is p in lowercase hex, built in place: the string's 2*len(p)
// bytes are its one allocation.
func hexString(p []byte) string {
	const digits = "0123456789abcdef"
	var sb strings.Builder
	sb.Grow(2 * len(p))
	for _, c := range p {
		sb.WriteByte(digits[c>>4])
		sb.WriteByte(digits[c&0xF])
	}
	return sb.String()
}

// Word reads what AppendWord wrote with the same vocab.
func (r *Reader) Word(vocab []string) string { return r.WordOf(r.Uvarint(), vocab) }

// WordOf reads the rest of a word whose header i (WordIndex) a layout holds
// elsewhere: vocab[i-1], or for 0 a Token that vocab must lack. A header
// beyond vocab latches an error.
func (r *Reader) WordOf(i uint64, vocab []string) string {
	at := r.off
	switch {
	case r.err != nil:
		return ""
	case i > uint64(len(vocab)):
		r.Fail("word %d before offset %d is beyond a %d-word vocabulary", i, at, len(vocab))
		return ""
	case i > 0:
		return vocab[i-1]
	}
	s := r.Token()
	if r.err == nil && slices.Contains(vocab, s) {
		r.Fail("vocabulary word %q spelled out at offset %d", s, at)
		return ""
	}
	return s
}

// Symbol reads what AppendSymbol wrote, resolving a reference through table,
// the field's values by number. defined reports a value written out: the
// caller's table must not hold it yet, a rule only a reader holding the
// table as of this event's place can check. A reference beyond table and an
// empty value written out latch an error.
func (r *Reader) Symbol(table []string) (s string, defined bool) {
	at := r.off
	switch h := r.Uvarint(); {
	case r.err != nil || h == 0:
		return "", false
	case h == 1:
		if s = r.Token(); r.err == nil && s == "" {
			r.Fail("empty symbol written out at offset %d", at)
		}
		return s, r.err == nil
	case h-2 >= uint64(len(table)):
		r.Fail("symbol %d at offset %d is beyond a %d-entry table", h-2, at, len(table))
		return "", false
	default:
		return table[h-2], false
	}
}

// Magic consumes len(want) bytes and reports whether they spell want — the
// leading magic of a snapshot or bundle. A mismatch is the caller's error to
// name; only a short read latches.
func (r *Reader) Magic(want string) bool { return string(r.take(len(want))) == want }

// Fixed fills dst with the next len(dst) bytes; dst is left untouched when
// they are not there.
func (r *Reader) Fixed(dst []byte) { copy(dst, r.take(len(dst))) }

// View is Fixed without the copy: the next n bytes in place, capped at their
// end (nil when they are not there), for a caller that keeps them no longer
// than the input.
func (r *Reader) View(n int) []byte {
	if p := r.take(n); p != nil {
		return p[:n:n]
	}
	return nil
}

// Count reads a u32 element count for a loop whose every element occupies at
// least minElemBytes, and latches ErrShort when that many elements cannot fit
// in what remains — so a hostile count can neither size an allocation nor
// spin a loop beyond the input's own length. It returns 0 once the Reader is
// bad.
func (r *Reader) Count(minElemBytes int) int {
	n := r.U32()
	if rem := len(r.b) - r.off; r.err == nil && uint64(n)*uint64(minElemBytes) > uint64(rem) {
		r.err = fmt.Errorf("%w: count %d of %d-byte elements at offset %d, %d remain", ErrShort, n, minElemBytes, r.off-4, rem)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Offset is how many bytes r has consumed: the offset Since takes.
func (r *Reader) Offset() int { return r.off }

// Since returns the bytes r consumed from offset at, an earlier Offset, on,
// in place and capped at their end; nil once r is bad.
func (r *Reader) Since(at int) []byte {
	if r.err != nil {
		return nil
	}
	return r.b[at:r.off:r.off]
}

// Err reports the latched short-read error, if any.
func (r *Reader) Err() error { return r.err }

// Done is Err plus the trailing-bytes rule: a value's encoding must be
// consumed exactly.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("frame: %d trailing bytes at offset %d", len(r.b)-r.off, r.off)
	}
	return r.err
}
