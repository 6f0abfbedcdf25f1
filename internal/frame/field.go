package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// ErrShort is the field codec's one decoding failure: a read, or a count's
// worth of minimum-size elements, needed more bytes than the input holds.
// Format decoders wrap it in their own corruption sentinel.
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

// Reader is a cursor over one encoded value. The first read that runs short
// latches an error naming its byte offset, and every later read returns the
// zero value without advancing, so a decoder parses straight-line and checks
// Err or Done once. Nothing a Reader returns aliases its input.
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

// Magic consumes len(want) bytes and reports whether they spell want — the
// leading magic of a snapshot or bundle. A mismatch is the caller's error to
// name; only a short read latches.
func (r *Reader) Magic(want string) bool { return string(r.take(len(want))) == want }

// Fixed fills dst with the next len(dst) bytes; dst is left untouched when
// they are not there.
func (r *Reader) Fixed(dst []byte) { copy(dst, r.take(len(dst))) }

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
