package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/frame"
	"medvault/internal/index"
	"medvault/internal/merkle"
	"medvault/internal/retention"
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
//	    u8 'V' | str id | str category | str mrn | version |
//	    i64 createdNano | str wrappedDEK (empty for versions > 1)
//	'S' shred:
//	    u8 'S' | str id
//	'H' legal hold:
//	    u8 'H' | str id | str reason | i64 placedNano
//	'R' hold release:
//	    u8 'R' | str id
//
// where version, shared with the snapshot, is
//
//	str author | u64 number | u32 refSegment | u64 refOffset | 32B ctHash |
//	i64 versionNano
//
// decodeWALEntry is the only parser of these layouts: recovery applies what
// it returns, and ReplicaHeads derives Merkle leaves from the same struct.

// leafData is what the Merkle log commits to per version.
func leafData(id string, version uint64, ctHash [32]byte) []byte {
	b := append(make([]byte, 0, 64+len(id)), "vault/leaf/v1\x00"...)
	b = frame.AppendStr(b, id)
	b = binary.BigEndian.AppendUint64(b, version)
	return append(b, ctHash[:]...)
}

// sealAAD binds a ciphertext to its record and version.
func sealAAD(id string, version uint64) []byte {
	return []byte(fmt.Sprintf("%s/v%d", id, version))
}

func appendVersion(b []byte, ver Version) []byte {
	b = frame.AppendStr(b, ver.Author)
	b = binary.BigEndian.AppendUint64(b, ver.Number)
	b = binary.BigEndian.AppendUint32(b, ver.Ref.Segment)
	b = binary.BigEndian.AppendUint64(b, ver.Ref.Offset)
	b = append(b, ver.CtHash[:]...)
	return frame.AppendTime(b, ver.Timestamp)
}

func readVersion(r *frame.Reader) (ver Version) {
	ver.Author = r.Str()
	ver.Number = r.U64()
	ver.Ref.Segment = r.U32()
	ver.Ref.Offset = r.U64()
	r.Fixed(ver.CtHash[:])
	ver.Timestamp = r.Time()
	return ver
}

// versionMinBytes is the shortest encoded version: an empty author.
const versionMinBytes = 4 + 8 + 4 + 8 + 32 + 8

func encodeVersionEntry(id string, category ehr.Category, mrn string, ver Version, created time.Time, wrappedDEK []byte) []byte {
	b := append(make([]byte, 0, 128+len(id)+len(mrn)+len(ver.Author)+len(wrappedDEK)), 'V')
	b = frame.AppendStr(b, id)
	b = frame.AppendStr(b, string(category))
	b = frame.AppendStr(b, mrn)
	b = appendVersion(b, ver)
	b = frame.AppendTime(b, created)
	return frame.AppendBytes(b, wrappedDEK)
}

func encodeShredEntry(id string) []byte { return frame.AppendStr([]byte{'S'}, id) }

func encodeHoldEntry(id, reason string, placed time.Time) []byte {
	b := frame.AppendStr([]byte{'H'}, id)
	b = frame.AppendStr(b, reason)
	return frame.AppendTime(b, placed)
}

func encodeReleaseEntry(id string) []byte { return frame.AppendStr([]byte{'R'}, id) }

// walEntry is one decoded metadata WAL entry; kind says which fields beyond
// id are meaningful.
type walEntry struct {
	kind       byte // 'V', 'S', 'H' or 'R'
	id         string
	category   ehr.Category // V
	mrn        string       // V
	ver        Version      // V (LeafIndex is assigned at replay, not logged)
	created    time.Time    // V
	wrappedDEK []byte       // V
	reason     string       // H
	placed     time.Time    // H
}

func decodeWALEntry(data []byte) (walEntry, error) {
	if len(data) == 0 {
		return walEntry{}, fmt.Errorf("core: empty WAL entry")
	}
	r := frame.NewReader(data)
	e := walEntry{kind: r.U8(), id: r.Str()}
	switch e.kind {
	case 'V':
		e.category = ehr.Category(r.Str())
		e.mrn = r.Str()
		e.ver = readVersion(r)
		e.created = r.Time()
		e.wrappedDEK = r.Bytes()
	case 'H':
		e.reason = r.Str()
		e.placed = r.Time()
	case 'S', 'R':
	default:
		return walEntry{}, fmt.Errorf("core: unknown WAL entry kind 0x%02x", e.kind)
	}
	if err := r.Done(); err != nil {
		return walEntry{}, fmt.Errorf("core: WAL %c entry: %w", e.kind, err)
	}
	return e, nil
}

// applyWALEntry replays one metadata mutation during recovery. It rebuilds
// derived state (Merkle leaves, index postings, retention tracking) from the
// durable primitives.
func (v *Vault) applyWALEntry(data []byte) error {
	e, err := decodeWALEntry(data)
	if err != nil {
		return err
	}
	switch e.kind {
	case 'V':
		return v.replayVersion(e.id, e.category, e.mrn, e.ver, e.created, e.wrappedDEK)
	case 'S':
		return v.replayShred(e.id)
	case 'H':
		return v.ret.PlaceHoldAt(e.id, e.reason, e.placed)
	default: // 'R'
		v.ret.ReleaseHold(e.id)
		return nil
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
//	               i64 createdNano | u32 nVersions { version | u64 leafIndex }* }* |
//	bytes keystoreSnapshot | bytes merkleLeafHashes | bytes indexSnapshot |
//	u32 nHolds { str id | str reason | i64 placedNano }*
//
// flags: bit0 = shredded, bit1 = sanitized (ciphertext removed from media).
// snapshot.encode and decodeSnapshot are the layout's only writer and reader.
const (
	snapMagic   = "MVMS"
	snapVersion = 3

	snapShredded  = 1
	snapSanitized = 2
)

// snapshot is meta.snap as plain data: what recovery restores into a Vault
// and what ReplicaHeads, keyless, takes leaf hashes and version counts from.
type snapshot struct {
	leafSeq  uint64
	records  []snapRecord // sorted by id
	keystore []byte       // vcrypto.KeyStore snapshot
	leaves   []merkle.Hash
	index    []byte // index.SSE snapshot
	holds    []retention.Hold
}

type snapRecord struct {
	id       string
	category ehr.Category
	mrn      string
	flags    byte
	created  time.Time
	versions []Version
}

func (s *snapshot) encode() []byte {
	b := binary.BigEndian.AppendUint16([]byte(snapMagic), snapVersion)
	b = binary.BigEndian.AppendUint64(b, s.leafSeq)
	b = frame.AppendCount(b, len(s.records))
	for _, rec := range s.records {
		b = frame.AppendStr(b, rec.id)
		b = frame.AppendStr(b, string(rec.category))
		b = frame.AppendStr(b, rec.mrn)
		b = append(b, rec.flags)
		b = frame.AppendTime(b, rec.created)
		b = frame.AppendCount(b, len(rec.versions))
		for _, ver := range rec.versions {
			b = appendVersion(b, ver)
			b = binary.BigEndian.AppendUint64(b, ver.LeafIndex)
		}
	}
	b = frame.AppendBytes(b, s.keystore)
	b = frame.AppendBytes(b, merkle.EncodeHashes(s.leaves))
	b = frame.AppendBytes(b, s.index)
	b = frame.AppendCount(b, len(s.holds))
	for _, h := range s.holds {
		b = frame.AppendStr(b, h.Record)
		b = frame.AppendStr(b, h.Reason)
		b = frame.AppendTime(b, h.Placed)
	}
	return b
}

func decodeSnapshot(data []byte) (*snapshot, error) {
	r := frame.NewReader(data)
	if !r.Magic(snapMagic) {
		return nil, fmt.Errorf("core: snapshot has bad magic")
	}
	if r.U16() != snapVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version")
	}
	s := &snapshot{leafSeq: r.U64()}
	s.records = make([]snapRecord, r.Count(3*4+1+8+4))
	for i := range s.records {
		rec := &s.records[i]
		rec.id = r.Str()
		rec.category = ehr.Category(r.Str())
		rec.mrn = r.Str()
		rec.flags = r.U8()
		rec.created = r.Time()
		rec.versions = make([]Version, r.Count(versionMinBytes+8))
		for j := range rec.versions {
			rec.versions[j] = readVersion(r)
			rec.versions[j].LeafIndex = r.U64()
		}
	}
	s.keystore = r.Bytes()
	leafBytes := r.Bytes()
	s.index = r.Bytes()
	s.holds = make([]retention.Hold, r.Count(4+4+8))
	for i := range s.holds {
		s.holds[i] = retention.Hold{Record: r.Str(), Reason: r.Str(), Placed: r.Time()}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: truncated snapshot: %w", err)
	}
	var err error
	if s.leaves, err = merkle.DecodeHashes(leafBytes); err != nil {
		return nil, fmt.Errorf("core: restoring commitment log: %w", err)
	}
	return s, nil
}

// writeSnapshotLocked serializes vault metadata to disk; the caller holds
// the op gate exclusively (Close, SanitizeMedia), so no operation is
// mutating any record while the snapshot walks the registry.
func (v *Vault) writeSnapshotLocked() error {
	s := snapshot{
		leafSeq:  v.leafSeq.Load(),
		keystore: v.keys.Snapshot(),
		leaves:   v.log.Tree().LeafHashes(),
	}
	for _, id := range sortedRecordIDs(v.records) {
		st := v.records[id]
		rec := snapRecord{id: id, category: st.category, mrn: st.mrn, created: st.created, versions: st.versions}
		if st.shredded.Load() {
			rec.flags |= snapShredded
		}
		if st.sanitized {
			rec.flags |= snapSanitized
		}
		s.records = append(s.records, rec)
	}
	var err error
	if s.index, err = v.idx.Snapshot(); err != nil {
		return fmt.Errorf("core: snapshotting index: %w", err)
	}
	// The retention manager may be shared across a cluster's shards; each
	// shard snapshots only the holds on records it owns, so no shard restores
	// (or double-restores) a sibling's holds.
	for _, h := range v.ret.Holds() {
		if _, ok := v.records[h.Record]; ok {
			s.holds = append(s.holds, h)
		}
	}
	if err := faultfs.WriteFileAtomic(v.fs, filepath.Join(v.dir, "meta.snap"), s.encode(), 0o600); err != nil {
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
	s, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	v.leafSeq.Store(s.leafSeq)
	for _, rec := range s.records {
		st := &recordState{
			category:  rec.category,
			mrn:       rec.mrn,
			created:   rec.created,
			sanitized: rec.flags&snapSanitized != 0,
			versions:  rec.versions,
		}
		st.shredded.Store(rec.flags&snapShredded != 0)
		v.records[rec.id] = st
		if !st.shredded.Load() {
			if err := v.ret.Track(rec.id, string(rec.category), st.created); err != nil {
				return fmt.Errorf("core: restoring retention for %s: %w", rec.id, err)
			}
		}
	}
	if err := v.keys.Restore(s.keystore); err != nil {
		return fmt.Errorf("core: restoring key store: %w", err)
	}
	v.log = merkle.LogFromLeafHashes(v.signer, func() time.Time { return v.clk.Now() }, s.leaves)
	if v.idx, err = index.LoadSSE(vcrypto.DeriveKey(master, "vault/index"), s.index); err != nil {
		return fmt.Errorf("core: restoring index: %w", err)
	}
	for _, h := range s.holds {
		if err := v.ret.PlaceHoldAt(h.Record, h.Reason, h.Placed); err != nil {
			return fmt.Errorf("core: restoring hold on %s: %w", h.Record, err)
		}
	}
	return nil
}
