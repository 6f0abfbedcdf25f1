package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"medvault/internal/audit"
	"medvault/internal/blockstore"
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
// checkpoint) folds the WAL into an atomic snapshot. A put's, correction's or
// import's ciphertext and a mutation's custody event ride in its WAL entry
// until a checkpoint moves them to the block store and the custody log, and
// replay rebuilds them from the entry until then. So does every audit event
// since the last checkpoint (audit.Tail): a create's or correction's allowed
// event inside its own entry, any other as an entry of its own; replay
// resumes the audit chain from them.
//
// WAL entry layouts (fixed-width integers big-endian; str is u32 len ||
// bytes, varstr and varbytes are uvarint len || bytes):
//
//	'P' create of a put, 'I' of an import (version 1):
//	    u8 'P' or 'I' | varstr id | uvarint number (1) | i64 versionNano |
//	    varstr author | varbytes wrappedDEK | varbytes ciphertext
//	'p' version-append of a correction, 'i' of an imported later version:
//	    u8 'p' or 'i' | varstr id | uvarint number | i64 versionNano |
//	    varstr author | identity (only when number == 1, legacy) |
//	    varbytes ciphertext
//	'P' or 'p' with the allowed audit event folded in:
//	    the 'P' or 'p' entry with u8 0 | fold before its varbytes ciphertext
//	8 standalone audit event (audit.IsStandalone):
//	    the event's v8 encoding, whose layout byte is the kind
//	7 standalone audit event, an older binary's (decoded, never written):
//	    the event's v7 encoding
//	'c' ('p'), 'v' ('i'), legacy (decoded, never written):
//	    u8 'c' or 'v' | varstr id | uvarint number | cversion |
//	    identity (only when number == 1)
//	's' shred:
//	    u8 's' | varstr id | varstr actor | i64 atNano
//	'S' shred, legacy (decoded, never written):
//	    u8 'S' | str id
//	'H' legal hold:
//	    u8 'H' | str id | str reason | i64 placedNano
//	'R' hold release:
//	    u8 'R' | str id
//	'V' version-append, legacy (decoded, never written):
//	    u8 'V' | str id | str category | str mrn | version |
//	    i64 createdNano | str wrappedDEK (empty for versions > 1)
//
// where identity, which an older binary wrote in its creates, is
//
//	word category (ehr.CategoryWords) | varstr mrn | i64 createdNano |
//	varbytes wrappedDEK
//
// cversion, shared with meta.snap v4, is
//
//	uvarint refSegment | uvarint refOffset | 32B ctHash | i64 versionNano |
//	varstr author
//
// and version, shared with meta.snap v3, is
//
//	str author | u64 number | u32 refSegment | u64 refOffset | 32B ctHash |
//	i64 versionNano
//
// A 'P', 'I', 'p' or 'i' entry holds only what the seal cannot vouch for:
// the ciphertext, whose hash replay computes and whose Ref is the entry's
// own offset (walSegment) until checkpoint moves it, and a create's wrapped
// DEK. The record's category, MRN and created time are in the sealed record,
// which apply opens at replay and registers them from: no entry writes them
// in the clear, and replay reads none a legacy entry holds. Each entry has
// exactly one encoding; a create without a DEK, a 'P' or 'I' entry of
// another version, a correction with a DEK, version 0, a missing ciphertext
// and trailing bytes are ErrCorrupt. Every version-append layout decodes to
// kind 'V', and both shreds to kind 'S'.
//
// 'P', 'p', 'c' and 's' carry the custody event apply chains (and replay
// completes): the version's author, time and hash, or the shred's actor and
// time. The entry is where that event lives until checkpoint writes it to
// the custody store. An import adopts its custody chain, so it writes 'I'
// and 'i'; 'v', 'V' and 'S' carry none.
//
// A folded 'P' or 'p' entry also carries the allowed event of the access
// decision that let the create or correction through: its actor is the
// version's author, its record the entry's, its time the version's, its
// action create (version 1) or correct (version 0), its outcome allowed. Its
// fold is what the entry lacks — detail, trace and tag — in the audit
// package's layout (audit.ReadFold), which replay checks against the chain.
// An empty ciphertext, which no version has, announces it: an older binary
// refuses the entry rather than lose the event, and no prefix of a folded
// entry is an unfolded one.
//
// walEntry.encode and decodeWALEntry are the layouts' only writer and parser:
// commit logs the struct it then applies, and recovery applies what the
// parser returns.

// auditHost is the fields of the allowed audit event a folded entry carries
// that the entry itself holds (audit.Tail.Scan); nil for any other entry.
func (e *walEntry) auditHost() *audit.Event {
	if e.kind != 'V' || e.event == nil {
		return nil
	}
	action, version := audit.ActionCreate, uint64(1)
	if e.ver.Number > 1 {
		action, version = audit.ActionCorrect, 0
	}
	return &audit.Event{Actor: e.ver.Author, Action: action, Record: e.id, Version: version,
		Outcome: audit.OutcomeAllowed, Timestamp: e.ver.Timestamp}
}

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

// appendCompactVersion writes ver as cversion; its number is implied by its
// place in meta.snap v4.
func appendCompactVersion(b []byte, ver Version) []byte {
	b = frame.AppendUvarint(b, uint64(ver.Ref.Segment))
	b = frame.AppendUvarint(b, ver.Ref.Offset)
	b = append(b, ver.CtHash[:]...)
	b = frame.AppendTime(b, ver.Timestamp)
	return frame.AppendVarStr(b, ver.Author)
}

// readCompactVersion reads a cversion as the given version number.
func readCompactVersion(r *frame.Reader, number uint64) Version {
	ver := Version{Number: number}
	seg := r.Uvarint()
	if seg > math.MaxUint32 {
		r.Fail("segment %d does not fit 32 bits", seg)
	}
	ver.Ref.Segment = uint32(seg)
	ver.Ref.Offset = r.Uvarint()
	r.Fixed(ver.CtHash[:])
	ver.Timestamp = r.Time()
	ver.Author = r.VarStr()
	return ver
}

// compactVersionMinBytes is the shortest cversion: one-byte uvarints and an
// empty author.
const compactVersionMinBytes = 1 + 1 + 32 + 8 + 1

// readVersion reads the legacy fixed-width version.
func readVersion(r *frame.Reader) (ver Version) {
	ver.Author = r.Str()
	ver.Number = r.U64()
	ver.Ref.Segment = r.U32()
	ver.Ref.Offset = r.U64()
	r.Fixed(ver.CtHash[:])
	ver.Timestamp = r.Time()
	return ver
}

// versionMinBytes is the shortest legacy version: an empty author.
const versionMinBytes = 4 + 8 + 4 + 8 + 32 + 8

// walEntry is one metadata mutation, as logged and as applied (commit.go);
// kind says which fields beyond id are meaningful. A version's identity
// (category, MRN, created time) is not among them: apply takes it from the
// sealed record.
type walEntry struct {
	kind       byte           // 'V', 'S', 'H', 'R', or 'A' for a standalone audit event
	custody    bool           // V, S: the entry carries its custody fact ('P', 'p', 'c', 's')
	at         blockstore.Ref // the entry's own place in meta.wal (walSegment), assigned at commit and replay, not logged
	id         string
	ver        Version   // V (Ref and LeafIndex are assigned at commit and replay, not logged); S with custody: Author, Timestamp
	wrappedDEK []byte    // V, version 1
	ct         []byte    // V: the ciphertext ('P', 'I', 'p', 'i'; nil from a legacy entry, whose bytes are in the block store)
	reason     string    // H
	placed     time.Time // H
	event      []byte    // A: the audit event's v7 bytes; V ('P', 'p'): its allowed event's fold, nil for none
}

func (e *walEntry) encode() []byte {
	if e.kind == 'A' {
		return e.event
	}
	if e.kind == 'V' {
		head, mid := e.versionParts(e.event != nil)
		return slices.Concat(head, e.event, mid, e.ct)
	}
	if e.kind == 'S' && e.custody {
		b := frame.AppendVarStr(append(make([]byte, 0, 16+len(e.id)+len(e.ver.Author)), 's'), e.id)
		return frame.AppendTime(frame.AppendVarStr(b, e.ver.Author), e.ver.Timestamp)
	}
	b := append(make([]byte, 0, 32+len(e.id)+len(e.reason)), e.kind)
	b = frame.AppendStr(b, e.id)
	if e.kind == 'H' {
		b = frame.AppendStr(b, e.reason)
		b = frame.AppendTime(b, e.placed)
	}
	return b
}

// versionParts is a 'V' entry's encoding around its fold and ciphertext,
// which encode joins and commit hands meta.wal without copying them first:
// head is every byte before the fold (its marker included when folded is
// set), and mid the ciphertext's length, which follows the fold.
func (e *walEntry) versionParts(folded bool) (head, mid []byte) {
	create := e.ver.Number == 1
	var kind byte
	switch {
	case create && e.custody:
		kind = 'P'
	case create:
		kind = 'I'
	case e.custody:
		kind = 'p'
	default:
		kind = 'i'
	}
	b := append(make([]byte, 0, 24+len(e.id)+len(e.ver.Author)+len(e.wrappedDEK)+binary.MaxVarintLen64), kind)
	b = frame.AppendVarStr(b, e.id)
	b = frame.AppendUvarint(b, e.ver.Number)
	b = frame.AppendTime(b, e.ver.Timestamp)
	b = frame.AppendVarStr(b, e.ver.Author)
	if create {
		b = frame.AppendVarBytes(b, e.wrappedDEK)
	}
	if folded {
		b = append(b, 0)
	}
	n := len(b)
	b = frame.AppendUvarint(b, uint64(len(e.ct)))
	return b[:n:n], b[n:]
}

// decodeWALEntry is parseWALEntry plus a version's ciphertext hash, which
// only a reader of the version needs.
func decodeWALEntry(data []byte) (walEntry, error) {
	e, err := parseWALEntry(data)
	if err == nil && e.ct != nil {
		e.ver.CtHash = vcrypto.Hash(e.ct)
	}
	return e, err
}

// parseWALEntry decodes one entry; its ciphertext and audit event alias
// data. A standalone event's payload is the audit package's to parse: replay
// hands it to the audit log, which checks its layout against the chain.
func parseWALEntry(data []byte) (walEntry, error) {
	if len(data) == 0 {
		return walEntry{}, fmt.Errorf("%w: empty WAL entry", ErrCorrupt)
	}
	if audit.IsStandalone(data[0]) {
		return walEntry{kind: 'A', event: data}, nil
	}
	r := frame.NewReader(data)
	var e walEntry
	switch kind := r.U8(); kind {
	case 'P', 'I', 'p', 'i', 'c', 'v':
		inline := kind != 'c' && kind != 'v'
		create := kind == 'P' || kind == 'I'
		e = walEntry{kind: 'V', custody: kind == 'P' || kind == 'p' || kind == 'c', id: r.VarStr()}
		if number := r.Uvarint(); inline {
			e.ver = Version{Number: number, Timestamp: r.Time(), Author: r.VarStr()}
		} else {
			e.ver = readCompactVersion(r, number)
		}
		switch {
		case create && e.ver.Number != 1:
			r.Fail("%c entry of %s holds version %d", kind, e.id, e.ver.Number)
		case e.ver.Number == 0:
			r.Fail("version 0 of %s", e.id)
		case e.ver.Number == 1 && !create:
			// A legacy create: replay takes the identity from the seal.
			r.Word(ehr.CategoryWords)
			r.VarStr()
			r.Time()
		}
		if e.ver.Number == 1 {
			if e.wrappedDEK = r.VarBytes(); e.wrappedDEK == nil {
				r.Fail("create of %s carries no DEK", e.id)
			}
		}
		if inline {
			if e.ct = r.VarView(); e.ct == nil && e.custody {
				e.event = audit.ReadFold(r) // a folded entry
				e.ct = r.VarView()
			}
			if e.ct == nil {
				r.Fail("version %d of %s carries no ciphertext", e.ver.Number, e.id)
			}
		}
	case 'V':
		e = walEntry{kind: kind, id: r.Str()}
		r.Str() // category and MRN: replay takes them from the seal
		r.Str()
		e.ver = readVersion(r)
		r.Time() // created time
		e.wrappedDEK = r.Bytes()
	case 'H':
		e = walEntry{kind: kind, id: r.Str()}
		e.reason = r.Str()
		e.placed = r.Time()
	case 's':
		e = walEntry{kind: 'S', custody: true, id: r.VarStr(), ver: Version{Author: r.VarStr(), Timestamp: r.Time()}}
	case 'S', 'R':
		e = walEntry{kind: kind, id: r.Str()}
	default:
		return walEntry{}, fmt.Errorf("%w: unknown WAL entry kind 0x%02x", ErrCorrupt, kind)
	}
	if err := r.Done(); err != nil {
		return walEntry{}, fmt.Errorf("%w: WAL %c entry: %w", ErrCorrupt, data[0], err)
	}
	return e, nil
}

// Snapshot layout (v4; v3 is decoded, never written):
//
//	magic "MVMS" | u16 version | u64 leafSeq |
//	u32 nRecords { str id | str category | str mrn | u8 flags |
//	               i64 createdNano | u32 nVersions { cversion | uvarint leafIndex }* }* |
//	bytes keystoreSnapshot | bytes merkleLeafHashes | bytes indexSnapshot |
//	u32 nHolds { str id | str reason | i64 placedNano }*
//
// A version's number is its place in its record's list, and a record has at
// least one. v3 wrote each version as version | u64 leafIndex instead, so a
// v3 number that is not its place is ErrCorrupt.
//
// flags: bit0 = shredded, bit1 = sanitized (ciphertext removed from media).
// snapshot.encode and decodeSnapshot are the layout's only writer and reader.
const (
	snapMagic   = "MVMS"
	snapVersion = 4

	snapShredded  = 1
	snapSanitized = 2
)

// snapshot is meta.snap as plain data: what recovery restores into a Vault.
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
			b = appendCompactVersion(b, ver)
			b = frame.AppendUvarint(b, ver.LeafIndex)
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
		return nil, fmt.Errorf("%w: snapshot has bad magic", ErrCorrupt)
	}
	version := r.U16()
	if version != 3 && version != snapVersion {
		return nil, fmt.Errorf("%w: unsupported snapshot version %d", ErrCorrupt, version)
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
		if version == 3 {
			rec.versions = make([]Version, r.Count(versionMinBytes+8))
			for j := range rec.versions {
				rec.versions[j] = readVersion(r)
				rec.versions[j].LeafIndex = r.U64()
				if n := rec.versions[j].Number; n != uint64(j)+1 && r.Err() == nil {
					return nil, fmt.Errorf("%w: snapshot lists version %d of %s at position %d", ErrCorrupt, n, rec.id, j+1)
				}
			}
		} else {
			rec.versions = make([]Version, r.Count(compactVersionMinBytes+1))
			for j := range rec.versions {
				rec.versions[j] = readCompactVersion(r, uint64(j)+1)
				rec.versions[j].LeafIndex = r.Uvarint()
			}
		}
		if len(rec.versions) == 0 && r.Err() == nil {
			return nil, fmt.Errorf("%w: snapshot lists %s without versions", ErrCorrupt, rec.id)
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
		return nil, fmt.Errorf("%w: truncated snapshot: %w", ErrCorrupt, err)
	}
	var err error
	if s.leaves, err = merkle.DecodeHashes(leafBytes); err != nil {
		return nil, fmt.Errorf("core: restoring commitment log: %w", err)
	}
	if s.leafSeq != uint64(len(s.leaves)) {
		return nil, fmt.Errorf("%w: snapshot's leafSeq %d is not its leaf count %d", ErrCorrupt, s.leafSeq, len(s.leaves))
	}
	return s, nil
}

// writeSnapshotLocked serializes vault metadata to disk; the caller holds
// the op gate exclusively (Close, SanitizeMedia), so no operation is
// mutating any record while the snapshot walks the registry.
func (v *Vault) writeSnapshotLocked() error {
	s := snapshot{
		leafSeq:  v.log.Size(),
		keystore: v.keys.Snapshot(),
		leaves:   v.log.Tree().LeafHashes(),
	}
	for _, r := range v.registry() {
		st := r.st
		rec := snapRecord{id: r.id, category: v.category(st), mrn: v.names.ID(st.mrn), created: time.Unix(0, st.created), versions: v.versions(st)}
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
		if _, ok := v.lookup(h.Record); ok {
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
	for _, rec := range s.records {
		st := &recordState{
			mrn:       v.names.Intern(rec.mrn),
			created:   rec.created.UnixNano(),
			first:     v.compact(rec.versions[0]),
			category:  v.names.Intern(string(rec.category)),
			sanitized: rec.flags&snapSanitized != 0,
		}
		if len(rec.versions) > 1 {
			st.more = make([]verState, len(rec.versions)-1)
			for i, ver := range rec.versions[1:] {
				st.more[i] = v.compact(ver)
			}
		}
		st.shredded.Store(rec.flags&snapShredded != 0)
		if err := v.register(rec.id, st); err != nil {
			return err
		}
	}
	if err := v.keys.Restore(s.keystore); err != nil {
		return fmt.Errorf("core: restoring key store: %w", err)
	}
	v.log = merkle.LogFromLeafHashes(v.signer, func() time.Time { return v.clk.Now() }, s.leaves)
	if v.idx, err = index.LoadSSEOn(v.recs, vcrypto.DeriveKey(master, "vault/index"), s.index); err != nil {
		return fmt.Errorf("core: restoring index: %w", err)
	}
	for _, h := range s.holds {
		if err := v.ret.PlaceHoldAt(h.Record, h.Reason, h.Placed); err != nil {
			return fmt.Errorf("core: restoring hold on %s: %w", h.Record, err)
		}
	}
	return nil
}
