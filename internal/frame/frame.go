// Package frame is MedVault's one binary codec, in two layers.
//
// The frame layer (frame.go) is the CRC-framed record every file and stream
// of records is made of, under one of three headers (Format: Seq, Block and
// Var). Every file the vault appends to is written in Var; Seq frames the
// replication stream and the WAL's layout marker, and Block is decoded
// only, in segments an older binary wrote.
// Format.Walk is the one tail rule: decode from the front until a frame is
// incomplete or fails its CRC, and report where the valid prefix ends, for
// the caller to cut there or report corruption. A length field is medium
// content, so no decoder sizes anything by it before bounding it.
//
// The field layer (field.go) is what goes inside a frame, a snapshot file, a
// hash or signature domain, or a replication payload: big-endian fixed ints,
// i64 Unix-nanosecond times, u32-length-prefixed strings and byte fields,
// u32 element counts, and, for event logs, compact fields (AppendUvarint,
// AppendVarint, AppendVarBytes, AppendToken, AppendWord). Encoders append
// (AppendStr, AppendBytes, AppendCount, AppendTime beside encoding/binary's
// AppendUintN); every decoder in the
// repository is a straight-line walk of a Reader, which latches the first
// short read with its byte offset, bounds every count by the bytes that
// remain, and enforces the no-trailing-bytes rule in Done. A format's layout
// and its input validation therefore exist once: in its owning package's one
// encoder and one decoder (DESIGN.md, "On-disk and wire formats"), pinned by
// a golden byte vector checked through CheckGolden (golden.go).
//
// The package sits below wal, blockstore and obs and imports nothing but the
// standard library. It is the only importer of hash/crc32.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// A Format is one of the three frame headers. Every frame is
//
//	header | len | u32 crc32c(payload) | payload
//
// big-endian. Seq frames (the replication stream, legacy WAL entries) open
// with a u64 sequence number and a u32 len; Block frames (legacy blockstore
// segments) open with the magic byte 0xB1 and a u32 len. Var frames (WAL
// entries, blockstore and flight segments) have no header before a uvarint
// len, in its shortest form and at most a u32: their reader recomputes what
// a sequence number would say.
type Format struct {
	hdr    int  // header bytes: 8 for a sequence number, 1 for a magic byte
	magic  byte // a one-byte header's value
	varLen bool // len is a uvarint, not a u32
}

var (
	Seq   = Format{hdr: 8}
	Block = Format{hdr: 1, magic: 0xB1}
	Var   = Format{varLen: true}
)

// ErrInvalid is wrapped by every frame a decoder refuses: one that is
// incomplete, has the wrong magic, or fails its CRC. A torn tail and a
// corrupt frame look alike; where the frame sits decides which it is.
var ErrInvalid = errors.New("frame: invalid")

var (
	errShortHeader = fmt.Errorf("%w: truncated header", ErrInvalid)
	errMagic       = fmt.Errorf("%w: bad magic", ErrInvalid)
	errVarLen      = fmt.Errorf("%w: malformed length", ErrInvalid)
	errOverrun     = fmt.Errorf("%w: length overruns the input", ErrInvalid)
	errChecksum    = fmt.Errorf("%w: checksum mismatch", ErrInvalid)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Overhead is the framing cost per frame: the header, len and u32 crc. A Var
// frame's len is a uvarint, so its Overhead holds for a payload under 128
// bytes, and each further 7 bits of length cost one byte more.
func (f Format) Overhead() int {
	if f.varLen {
		return 1 + 4
	}
	return f.hdr + 4 + 4
}

// maxOverhead bounds a frame's header, len and crc: Overhead, but for a Var
// frame with the longest len.
func (f Format) maxOverhead() int {
	if f.varLen {
		return binary.MaxVarintLen32 + 4
	}
	return f.Overhead()
}

// Append encodes one frame onto buf, growing it at most once: its payload is
// data's parts joined, so a caller holding a payload in pieces copies each
// once. Block and Var frames have no sequence number: seq is ignored.
func (f Format) Append(buf []byte, seq uint64, data ...[]byte) []byte {
	n, crc := 0, uint32(0)
	for _, p := range data {
		n, crc = n+len(p), crc32.Update(crc, castagnoli, p)
	}
	buf = slices.Grow(buf, f.maxOverhead()+n)
	switch {
	case f.varLen:
		buf = binary.AppendUvarint(buf, uint64(n))
	case f.hdr == 8:
		buf = binary.BigEndian.AppendUint64(buf, seq)
		buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	default:
		buf = append(buf, f.magic)
		buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	}
	buf = binary.BigEndian.AppendUint32(buf, crc)
	for _, p := range data {
		buf = append(buf, p...)
	}
	return buf
}

// Header is what a reader learns from a frame's header, len and crc.
type Header struct {
	Seq uint64 // a Seq frame's sequence number; 0 for a Block or Var frame
	Len uint32 // payload bytes: medium content, to bound before sizing anything
	CRC uint32 // CRC-32C of the payload
}

// Header parses the header at the front of b without looking past it.
func (f Format) Header(b []byte) (Header, error) {
	h, _, err := f.header(b)
	return h, err
}

// header is Header plus the header's length: where the payload starts.
func (f Format) header(b []byte) (h Header, n int, err error) {
	if f.varLen {
		v, k := binary.Uvarint(b)
		switch {
		case k == 0:
			return h, 0, errShortHeader
		case k < 0 || v > math.MaxUint32 || k > 1 && b[k-1] == 0:
			return h, 0, errVarLen
		case len(b) < k+4:
			return h, 0, errShortHeader
		}
		return Header{Len: uint32(v), CRC: binary.BigEndian.Uint32(b[k:])}, k + 4, nil
	}
	switch {
	case len(b) < f.Overhead():
		return h, 0, errShortHeader
	case f.hdr == 8:
		h.Seq = binary.BigEndian.Uint64(b)
	case b[0] != f.magic:
		return h, 0, errMagic
	}
	h.Len = binary.BigEndian.Uint32(b[f.hdr:])
	h.CRC = binary.BigEndian.Uint32(b[f.hdr+4:])
	return h, f.Overhead(), nil
}

// Check reports whether payload is the one h announces: its length and its
// CRC-32C match.
func (h Header) Check(payload []byte) error {
	if uint64(len(payload)) != uint64(h.Len) || crc32.Checksum(payload, castagnoli) != h.CRC {
		return errChecksum
	}
	return nil
}

// ReadAt reads and checks the frame at off in r, whose first size bytes are
// committed; they bound the length read from the medium before it allocates.
func (f Format) ReadAt(r io.ReaderAt, off, size int64) (Header, []byte, error) {
	if off < 0 || off > size-int64(f.Overhead()) {
		return Header{}, nil, fmt.Errorf("%w: no frame header at offset %d of %d committed bytes", ErrInvalid, off, size)
	}
	hdr := make([]byte, min(int64(f.maxOverhead()), size-off))
	if _, err := r.ReadAt(hdr, off); err != nil {
		return Header{}, nil, fmt.Errorf("reading frame header: %w", err)
	}
	h, n, err := f.header(hdr)
	if err != nil {
		return h, nil, err
	}
	if int64(n)+int64(h.Len) > size-off {
		return h, nil, fmt.Errorf("%w: frame length %d overruns the %d committed bytes", ErrInvalid, h.Len, size)
	}
	payload := make([]byte, h.Len)
	if _, err := r.ReadAt(payload, off+int64(n)); err != nil {
		return h, nil, fmt.Errorf("reading %d-byte payload: %w", h.Len, err)
	}
	return h, payload, h.Check(payload)
}

// next parses the whole frame at the front of b, bounding its length by the
// bytes b holds before slicing by it. payload aliases b; n is the frame's
// encoded length.
func (f Format) next(b []byte) (h Header, payload []byte, n int, err error) {
	h, k, err := f.header(b)
	if err != nil {
		return h, nil, 0, err
	}
	if uint64(k)+uint64(h.Len) > uint64(len(b)) {
		return h, nil, 0, errOverrun
	}
	payload = b[k : k+int(h.Len)]
	return h, payload, k + len(payload), h.Check(payload)
}

// Decode parses one frame from the front of b and returns its sequence
// number, a copy of its payload that outlives b, and its encoded length n.
func (f Format) Decode(b []byte) (seq uint64, data []byte, n int, err error) {
	h, payload, n, err := f.next(b)
	if err != nil {
		return 0, nil, 0, err
	}
	return h.Seq, slices.Clone(payload), n, nil
}

// Walk is the tail rule every frame reader shares: it decodes frames from
// the front of b until one is incomplete or fails its check, calling fn with
// each frame's offset, sequence number and payload (which aliases b). It
// returns the length of the valid prefix and why the walk stopped short of
// len(b): an error wrapping ErrInvalid for the frame at valid, or fn's error
// for the frame fn refused. err is nil exactly when b is whole frames.
func (f Format) Walk(b []byte, fn func(off int, seq uint64, payload []byte) error) (valid int, err error) {
	for valid < len(b) {
		h, payload, n, err := f.next(b[valid:])
		if err == nil {
			err = fn(valid, h.Seq, payload)
		}
		if err != nil {
			return valid, err
		}
		valid += n
	}
	return valid, nil
}
