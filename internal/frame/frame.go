// Package frame is MedVault's one binary codec, in two layers.
//
// The frame layer (frame.go) is the CRC-framed record shared by the WAL, the
// replication stream, and the flight recorder's crash-surviving segments.
// Layout of one frame: u64 seq | u32 len | u32 crc32c(data) | data, all
// big-endian. The tail rule every consumer shares: decode frames from the
// front until one is incomplete or fails its CRC, then discard the rest —
// a torn final frame from a power cut is truncated, never skipped over.
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
// The package sits below wal and obs (it imports nothing but the standard
// library), which is what lets the flight recorder reuse the exact framing
// the WAL is torture-proven on without an import cycle: wal depends on obs
// for its metrics, and obs depends on this codec for flight segments.
package frame

import (
	"encoding/binary"
	"hash/crc32"
)

// Overhead is the framing cost per record: u64 seq + u32 len + u32 crc.
const Overhead = 8 + 4 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Append encodes one framed record onto buf and returns the extended slice.
func Append(buf []byte, seq uint64, data []byte) []byte {
	var hdr [Overhead]byte
	binary.BigEndian.PutUint64(hdr[0:8], seq)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(data)))
	binary.BigEndian.PutUint32(hdr[12:16], crc32.Checksum(data, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, data...)
}

// Decode parses one frame from the front of b. ok is false when the bytes do
// not contain a complete valid frame (a torn tail). data is a copy — callers
// may retain it after b's backing array is reused.
func Decode(b []byte) (seq uint64, data []byte, n int, ok bool) {
	if len(b) < Overhead {
		return 0, nil, 0, false
	}
	seq = binary.BigEndian.Uint64(b[0:8])
	ln := binary.BigEndian.Uint32(b[8:12])
	crc := binary.BigEndian.Uint32(b[12:16])
	if uint64(Overhead)+uint64(ln) > uint64(len(b)) {
		return 0, nil, 0, false
	}
	payload := b[Overhead : Overhead+int(ln)]
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, nil, 0, false
	}
	data = make([]byte, ln)
	copy(data, payload)
	return seq, data, Overhead + int(ln), true
}

// Size reports the total encoded length of the frame whose header begins b,
// without validating anything — a stream reader uses it to learn how many
// bytes to collect before handing the complete frame to Decode. ok is false
// when b holds less than a full header.
func Size(b []byte) (int, bool) {
	if len(b) < Overhead {
		return 0, false
	}
	return Overhead + int(binary.BigEndian.Uint32(b[8:12])), true
}
