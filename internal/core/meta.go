package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/index"
	"medvault/internal/merkle"
	"medvault/internal/vcrypto"
)

// Metadata durability. Record metadata (the versions table) mutates on every
// Put/Correct/Shred, so it is write-ahead logged; Close (or an explicit
// checkpoint) folds the WAL into an atomic snapshot. Ciphertext, audit, and
// provenance live in their own append-only stores and recover themselves.
//
// WAL entry layouts (integers big-endian, str is u32 len || bytes):
//
//	'V' version-append:
//	    u8 'V' | str id | str category | str mrn | str author |
//	    u64 versionNumber | u32 refSegment | u64 refOffset | 32B ctHash |
//	    i64 versionNano | i64 createdNano |
//	    str wrappedDEK (empty for versions > 1)
//	'S' shred:
//	    u8 'S' | str id
//	'H' legal hold:
//	    u8 'H' | str id | str reason | i64 placedNano
//	'R' hold release:
//	    u8 'R' | str id

// leafData is what the Merkle log commits to per version.
func leafData(id string, version uint64, ctHash [32]byte) []byte {
	var buf bytes.Buffer
	buf.WriteString("vault/leaf/v1\x00")
	writeStr(&buf, id)
	writeU64(&buf, version)
	buf.Write(ctHash[:])
	return buf.Bytes()
}

// sealAAD binds a ciphertext to its record and version.
func sealAAD(id string, version uint64) []byte {
	return []byte(fmt.Sprintf("%s/v%d", id, version))
}

func encodeVersionEntry(id string, category ehr.Category, mrn string, ver Version, created time.Time, wrappedDEK []byte) []byte {
	var buf bytes.Buffer
	buf.WriteByte('V')
	writeStr(&buf, id)
	writeStr(&buf, string(category))
	writeStr(&buf, mrn)
	writeStr(&buf, ver.Author)
	writeU64(&buf, ver.Number)
	writeU32(&buf, ver.Ref.Segment)
	writeU64(&buf, ver.Ref.Offset)
	buf.Write(ver.CtHash[:])
	writeU64(&buf, uint64(ver.Timestamp.UnixNano()))
	writeU64(&buf, uint64(created.UnixNano()))
	writeBytes(&buf, wrappedDEK)
	return buf.Bytes()
}

func encodeShredEntry(id string) []byte {
	var buf bytes.Buffer
	buf.WriteByte('S')
	writeStr(&buf, id)
	return buf.Bytes()
}

func encodeHoldEntry(id, reason string, placed time.Time) []byte {
	var buf bytes.Buffer
	buf.WriteByte('H')
	writeStr(&buf, id)
	writeStr(&buf, reason)
	writeU64(&buf, uint64(placed.UnixNano()))
	return buf.Bytes()
}

func encodeReleaseEntry(id string) []byte {
	var buf bytes.Buffer
	buf.WriteByte('R')
	writeStr(&buf, id)
	return buf.Bytes()
}

// applyWALEntry replays one metadata mutation during recovery. It rebuilds
// derived state (Merkle leaves, index postings, retention tracking) from the
// durable primitives.
func (v *Vault) applyWALEntry(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("core: empty WAL entry")
	}
	r := bytes.NewReader(data[1:])
	switch data[0] {
	case 'V':
		id, err := readStr(r)
		if err != nil {
			return fmt.Errorf("core: WAL version entry: %w", err)
		}
		category, err := readStr(r)
		if err != nil {
			return fmt.Errorf("core: WAL version entry: %w", err)
		}
		mrn, err := readStr(r)
		if err != nil {
			return fmt.Errorf("core: WAL version entry: %w", err)
		}
		author, err := readStr(r)
		if err != nil {
			return fmt.Errorf("core: WAL version entry: %w", err)
		}
		var ver Version
		ver.Author = author
		if ver.Number, err = readU64(r); err != nil {
			return fmt.Errorf("core: WAL version entry: %w", err)
		}
		if ver.Ref.Segment, err = readU32(r); err != nil {
			return fmt.Errorf("core: WAL version entry: %w", err)
		}
		if ver.Ref.Offset, err = readU64(r); err != nil {
			return fmt.Errorf("core: WAL version entry: %w", err)
		}
		if _, err := io.ReadFull(r, ver.CtHash[:]); err != nil {
			return fmt.Errorf("core: WAL version entry: %w", err)
		}
		tsNano, err := readU64(r)
		if err != nil {
			return fmt.Errorf("core: WAL version entry: %w", err)
		}
		ver.Timestamp = time.Unix(0, int64(tsNano)).UTC()
		createdNano, err := readU64(r)
		if err != nil {
			return fmt.Errorf("core: WAL version entry: %w", err)
		}
		created := time.Unix(0, int64(createdNano)).UTC()
		wrappedDEK, err := readBytesField(r)
		if err != nil {
			return fmt.Errorf("core: WAL version entry: %w", err)
		}
		return v.replayVersion(id, ehr.Category(category), mrn, ver, created, wrappedDEK)
	case 'S':
		id, err := readStr(r)
		if err != nil {
			return fmt.Errorf("core: WAL shred entry: %w", err)
		}
		return v.replayShred(id)
	case 'H':
		id, err := readStr(r)
		if err != nil {
			return fmt.Errorf("core: WAL hold entry: %w", err)
		}
		reason, err := readStr(r)
		if err != nil {
			return fmt.Errorf("core: WAL hold entry: %w", err)
		}
		placedNano, err := readU64(r)
		if err != nil {
			return fmt.Errorf("core: WAL hold entry: %w", err)
		}
		return v.ret.PlaceHoldAt(id, reason, time.Unix(0, int64(placedNano)).UTC())
	case 'R':
		id, err := readStr(r)
		if err != nil {
			return fmt.Errorf("core: WAL release entry: %w", err)
		}
		v.ret.ReleaseHold(id)
		return nil
	default:
		return fmt.Errorf("core: unknown WAL entry kind 0x%02x", data[0])
	}
}

func (v *Vault) replayVersion(id string, category ehr.Category, mrn string, ver Version, created time.Time, wrappedDEK []byte) error {
	st := v.records[id]
	// A crash between the snapshot rename and the WAL checkpoint leaves
	// entries in the WAL that the snapshot already covers. Replay must be
	// idempotent: skip a version the snapshot restored, but only if it is
	// byte-identical — a mismatch means the log and snapshot diverged.
	if st != nil && ver.Number <= uint64(len(st.versions)) {
		have := st.versions[ver.Number-1]
		if have.Number != ver.Number || have.CtHash != ver.CtHash {
			return fmt.Errorf("core: WAL replay conflicts with snapshot: %s version %d", id, ver.Number)
		}
		return nil
	}
	if ver.Number == 1 {
		if st != nil {
			return fmt.Errorf("core: WAL replays version 1 of existing record %s", id)
		}
		if err := v.keys.AdoptWrapped(id, wrappedDEK); err != nil {
			return fmt.Errorf("core: replaying DEK for %s: %w", id, err)
		}
		if err := v.ret.Track(id, string(category), created); err != nil {
			return fmt.Errorf("core: replaying retention for %s: %w", id, err)
		}
		st = &recordState{category: category, mrn: mrn, created: created}
		v.records[id] = st
	} else if st == nil {
		return fmt.Errorf("core: WAL replays version %d of unknown record %s", ver.Number, id)
	}
	ver.LeafIndex = v.log.Append(leafData(id, ver.Number, ver.CtHash))
	v.leafSeq.Add(1)
	st.versions = append(st.versions, ver)

	// Rebuild the index posting from the (decryptable) latest version.
	ct, err := v.blocks.Read(ver.Ref)
	if err != nil {
		return fmt.Errorf("core: replaying ciphertext of %s: %w", id, err)
	}
	dek, err := v.keys.Get(id)
	if err != nil {
		return fmt.Errorf("core: replaying key of %s: %w", id, err)
	}
	pt, err := vcrypto.Open(dek, ct, sealAAD(id, ver.Number))
	if err != nil {
		return fmt.Errorf("core: replaying %s: %w", id, err)
	}
	rec, err := ehr.Decode(pt)
	if err != nil {
		return fmt.Errorf("core: replaying %s: %w", id, err)
	}
	v.idx.Add(id, rec.SearchText())
	return nil
}

func (v *Vault) replayShred(id string) error {
	st := v.records[id]
	if st == nil {
		return fmt.Errorf("core: WAL shreds unknown record %s", id)
	}
	if !st.shredded.Load() {
		if err := v.keys.Shred(id); err != nil {
			return fmt.Errorf("core: replaying shred of %s: %w", id, err)
		}
		v.idx.Remove(id)
		v.ret.Forget(id)
		st.shredded.Store(true)
	}
	return nil
}

// Snapshot layout:
//
//	magic "MVMS" | u16 version | u64 leafSeq |
//	u32 nRecords { str id | str category | str mrn | u8 flags |
//	               i64 createdNano | u32 nVersions { version fields }* }* |
//	bytes keystoreSnapshot | bytes merkleLeafHashes | bytes indexSnapshot |
//	u32 nHolds { str id | str reason | i64 placedNano }*
//
// flags: bit0 = shredded, bit1 = sanitized (ciphertext removed from media).
const (
	snapMagic   = "MVMS"
	snapVersion = 3
)

// writeSnapshotLocked serializes vault metadata to disk; the caller holds
// the op gate exclusively (Close, SanitizeMedia), so no operation is
// mutating any record while the snapshot walks the registry.
func (v *Vault) writeSnapshotLocked() error {
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	writeU16(&buf, snapVersion)
	writeU64(&buf, v.leafSeq.Load())
	ids := make([]string, 0, len(v.records))
	for id := range v.records {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	writeU32(&buf, uint32(len(ids)))
	for _, id := range ids {
		st := v.records[id]
		writeStr(&buf, id)
		writeStr(&buf, string(st.category))
		writeStr(&buf, st.mrn)
		var flags byte
		if st.shredded.Load() {
			flags |= 1
		}
		if st.sanitized {
			flags |= 2
		}
		buf.WriteByte(flags)
		writeU64(&buf, uint64(st.created.UnixNano()))
		writeU32(&buf, uint32(len(st.versions)))
		for _, ver := range st.versions {
			writeStr(&buf, ver.Author)
			writeU64(&buf, ver.Number)
			writeU32(&buf, ver.Ref.Segment)
			writeU64(&buf, ver.Ref.Offset)
			buf.Write(ver.CtHash[:])
			writeU64(&buf, uint64(ver.Timestamp.UnixNano()))
			writeU64(&buf, ver.LeafIndex)
		}
	}
	writeBytes(&buf, v.keys.Snapshot())
	writeBytes(&buf, merkle.EncodeHashes(v.log.Tree().LeafHashes()))
	idxSnap, err := v.idx.Snapshot()
	if err != nil {
		return fmt.Errorf("core: snapshotting index: %w", err)
	}
	writeBytes(&buf, idxSnap)
	// The retention manager may be shared across a cluster's shards; each
	// shard snapshots only the holds on records it owns, so no shard restores
	// (or double-restores) a sibling's holds.
	holds := v.ret.Holds()[:0:0]
	for _, h := range v.ret.Holds() {
		if _, ok := v.records[h.Record]; ok {
			holds = append(holds, h)
		}
	}
	writeU32(&buf, uint32(len(holds)))
	for _, h := range holds {
		writeStr(&buf, h.Record)
		writeStr(&buf, h.Reason)
		writeU64(&buf, uint64(h.Placed.UnixNano()))
	}

	if err := faultfs.WriteFileAtomic(v.fs, filepath.Join(v.dir, "meta.snap"), buf.Bytes(), 0o600); err != nil {
		return fmt.Errorf("core: writing snapshot: %w", err)
	}
	return nil
}

// loadSnapshot restores metadata from the snapshot at path; a missing file
// means a fresh vault, not an error. It records in v.recovery whether a
// snapshot was found.
func (v *Vault) loadSnapshot(master vcrypto.Key, path string) error {
	data, err := v.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // fresh vault
		}
		return fmt.Errorf("core: reading snapshot: %w", err)
	}
	v.recovery.SnapshotLoaded = true
	r := bytes.NewReader(data)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != snapMagic {
		return fmt.Errorf("core: snapshot has bad magic")
	}
	if ver, err := readU16(r); err != nil || ver != snapVersion {
		return fmt.Errorf("core: unsupported snapshot version")
	}
	leafSeq, err := readU64(r)
	if err != nil {
		return fmt.Errorf("core: truncated snapshot: %w", err)
	}
	v.leafSeq.Store(leafSeq)
	nRecords, err := readU32(r)
	if err != nil {
		return fmt.Errorf("core: truncated snapshot: %w", err)
	}
	for i := uint32(0); i < nRecords; i++ {
		id, err := readStr(r)
		if err != nil {
			return fmt.Errorf("core: truncated snapshot: %w", err)
		}
		category, err := readStr(r)
		if err != nil {
			return fmt.Errorf("core: truncated snapshot: %w", err)
		}
		mrn, err := readStr(r)
		if err != nil {
			return fmt.Errorf("core: truncated snapshot: %w", err)
		}
		flags, err := r.ReadByte()
		if err != nil {
			return fmt.Errorf("core: truncated snapshot: %w", err)
		}
		createdNano, err := readU64(r)
		if err != nil {
			return fmt.Errorf("core: truncated snapshot: %w", err)
		}
		nVersions, err := readU32(r)
		if err != nil {
			return fmt.Errorf("core: truncated snapshot: %w", err)
		}
		st := &recordState{
			category:  ehr.Category(category),
			mrn:       mrn,
			created:   time.Unix(0, int64(createdNano)).UTC(),
			sanitized: flags&2 != 0,
		}
		st.shredded.Store(flags&1 != 0)
		for j := uint32(0); j < nVersions; j++ {
			var ver Version
			if ver.Author, err = readStr(r); err != nil {
				return fmt.Errorf("core: truncated snapshot: %w", err)
			}
			if ver.Number, err = readU64(r); err != nil {
				return fmt.Errorf("core: truncated snapshot: %w", err)
			}
			if ver.Ref.Segment, err = readU32(r); err != nil {
				return fmt.Errorf("core: truncated snapshot: %w", err)
			}
			if ver.Ref.Offset, err = readU64(r); err != nil {
				return fmt.Errorf("core: truncated snapshot: %w", err)
			}
			if _, err = io.ReadFull(r, ver.CtHash[:]); err != nil {
				return fmt.Errorf("core: truncated snapshot: %w", err)
			}
			tsNano, err := readU64(r)
			if err != nil {
				return fmt.Errorf("core: truncated snapshot: %w", err)
			}
			ver.Timestamp = time.Unix(0, int64(tsNano)).UTC()
			if ver.LeafIndex, err = readU64(r); err != nil {
				return fmt.Errorf("core: truncated snapshot: %w", err)
			}
			st.versions = append(st.versions, ver)
		}
		v.records[id] = st
		if !st.shredded.Load() {
			if err := v.ret.Track(id, category, st.created); err != nil {
				return fmt.Errorf("core: restoring retention for %s: %w", id, err)
			}
		}
	}
	ksSnap, err := readBytesField(r)
	if err != nil {
		return fmt.Errorf("core: truncated snapshot: %w", err)
	}
	if v.keys, err = vcrypto.LoadKeyStore(vcrypto.DeriveKey(master, "vault/kek"), ksSnap); err != nil {
		return fmt.Errorf("core: restoring key store: %w", err)
	}
	// LoadKeyStore builds a default-sized DEK cache; reapply the configured
	// bound. The reopened vault's caches start cold either way.
	v.keys.SetCacheCapacity(v.dekCacheCap)
	leafBytes, err := readBytesField(r)
	if err != nil {
		return fmt.Errorf("core: truncated snapshot: %w", err)
	}
	leaves, err := merkle.DecodeHashes(leafBytes)
	if err != nil {
		return fmt.Errorf("core: restoring commitment log: %w", err)
	}
	v.log = merkle.LogFromLeafHashes(v.signer, func() time.Time { return v.clk.Now() }, leaves)
	idxSnap, err := readBytesField(r)
	if err != nil {
		return fmt.Errorf("core: truncated snapshot: %w", err)
	}
	if v.idx, err = index.LoadSSE(vcrypto.DeriveKey(master, "vault/index"), idxSnap); err != nil {
		return fmt.Errorf("core: restoring index: %w", err)
	}
	nHolds, err := readU32(r)
	if err != nil {
		return fmt.Errorf("core: truncated snapshot: %w", err)
	}
	for i := uint32(0); i < nHolds; i++ {
		id, err := readStr(r)
		if err != nil {
			return fmt.Errorf("core: truncated snapshot: %w", err)
		}
		reason, err := readStr(r)
		if err != nil {
			return fmt.Errorf("core: truncated snapshot: %w", err)
		}
		placedNano, err := readU64(r)
		if err != nil {
			return fmt.Errorf("core: truncated snapshot: %w", err)
		}
		if err := v.ret.PlaceHoldAt(id, reason, time.Unix(0, int64(placedNano)).UTC()); err != nil {
			return fmt.Errorf("core: restoring hold on %s: %w", id, err)
		}
	}
	return nil
}

// --- little-codec helpers shared by meta WAL and snapshot ---

func writeU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func writeStr(buf *bytes.Buffer, s string) {
	writeU32(buf, uint32(len(s)))
	buf.WriteString(s)
}

func writeBytes(buf *bytes.Buffer, p []byte) {
	writeU32(buf, uint32(len(p)))
	buf.Write(p)
}

func readU16(r *bytes.Reader) (uint16, error) {
	var b [2]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b[:]), nil
}

func readU32(r *bytes.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b[:]), nil
}

func readU64(r *bytes.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

func readStr(r *bytes.Reader) (string, error) {
	b, err := readBytesField(r)
	return string(b), err
}

func readBytesField(r *bytes.Reader) ([]byte, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if int(n) > r.Len() {
		return nil, fmt.Errorf("field length %d exceeds remaining %d", n, r.Len())
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}
