// Package provenance implements chain-of-custody tracking for records.
//
// HIPAA §164.310(d)(2)(iii) requires "a record of the movements of hardware
// and electronic media and any person responsible therefore", and the paper
// singles out trustworthy provenance as the feature missing from every
// storage model it surveys. This package keeps, per record, a hash-linked
// chain of custody events: creation, correction, migration out/in, backup,
// restore, and shredding. Each event names the responsible actor and system,
// commits to the record content hash at that moment, and links to its
// predecessor.
//
// Signatures sit at the trust boundary. On the system's own medium an event
// carries a MAC under a key derived from the system's signing seed, which an
// attacker who reaches the medium cannot make. When a chain leaves the system
// (Export: migration bundles, backups), each of the system's events is signed
// by it — so a record arriving from a migration carries a verifiable history
// spanning systems, signed by each custodian in turn, and the adopted events
// keep those signatures on the new custodian's medium.
//
// Events live only in the append-only blockstore, in a layout that stores only
// what the tracker cannot recompute (codec.go). In RAM the tracker keeps,
// per record, each event's blockstore.Ref and the chain's head hash. Open
// checks every link and MAC as events enter, and Adopt every link and
// signature; Chain reads the events back and checks their links, their MACs
// and that they end in the head, and Verify adds a check of every signature
// an event carries, so what both vouch for is the bytes on the medium, not a
// copy of them.
package provenance

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"medvault/internal/blockstore"
	"medvault/internal/frame"
	"medvault/internal/recno"
	"medvault/internal/vcrypto"
)

// EventType classifies a custody event.
type EventType string

// Custody event types.
const (
	EventCreated     EventType = "created"
	EventCorrected   EventType = "corrected"
	EventMigratedIn  EventType = "migrated-in"
	EventMigratedOut EventType = "migrated-out"
	EventBackedUp    EventType = "backed-up"
	EventRestored    EventType = "restored"
	EventShredded    EventType = "shredded"
)

// Errors returned by the package.
var (
	// ErrChainBroken indicates a custody chain does not link or hash.
	ErrChainBroken = errors.New("provenance: custody chain broken")
	// ErrBadSignature indicates a custody event signature failed.
	ErrBadSignature = errors.New("provenance: custody signature invalid")
	// ErrBadMAC indicates a stored custody event's MAC failed: the event was
	// written or edited by someone without the system's signing seed.
	ErrBadMAC = errors.New("provenance: custody event MAC invalid")
	// ErrUnknownRecord indicates no custody chain exists for the record.
	ErrUnknownRecord = errors.New("provenance: unknown record")
	// ErrCorrupt indicates an undecodable persisted event.
	ErrCorrupt = errors.New("provenance: corrupt event encoding")
	// ErrWedged indicates an earlier append failed: the tracker appends
	// nothing more until it is reopened, so no event lands ahead of one its
	// owner still owes.
	ErrWedged = errors.New("provenance: an earlier custody append failed; reopen to append")
)

// Event is one link in a record's custody chain.
type Event struct {
	Record      string // record ID this event belongs to
	Index       uint64 // position within the record's chain, from 0
	Type        EventType
	Timestamp   time.Time         // UTC
	Actor       string            // responsible person (HIPAA: "any person responsible")
	System      string            // system performing the action
	Peer        string            // counterpart system for migrations ("" otherwise)
	ContentHash [32]byte          // record content hash at this point (zero after shred)
	PrevHash    [32]byte          // hash of the previous event in this record's chain
	Hash        [32]byte          // hash of this event
	SignerKey   vcrypto.PublicKey // key of the signing system
	Signature   []byte            // over Hash; nil for the tracker's own event until Export signs it
}

// eventHash hashes the event's signed content.
func eventHash(e Event) [32]byte {
	b := make([]byte, 0, 160+len(e.Record)+len(e.Actor)+len(e.System)+len(e.Peer))
	b = append(b, "medvault/provenance/v1\x00"...)
	for _, s := range [...]string{e.Record, string(e.Type), e.Actor, e.System, e.Peer} {
		b = frame.AppendStr(b, s)
	}
	b = binary.BigEndian.AppendUint64(b, e.Index)
	b = frame.AppendTime(b, e.Timestamp)
	b = append(b, e.ContentHash[:]...)
	return vcrypto.Hash(append(b, e.PrevHash[:]...))
}

// Tracker maintains custody chains for all records in one system.
// Safe for concurrent use.
type Tracker struct {
	mu     sync.RWMutex
	store  blockstore.Store
	signer *vcrypto.Signer
	mac    *vcrypto.KeyedMAC // stored-event MACs, keyed from the signer's seed
	system string
	now    func() time.Time
	recs   *recno.Table // record numbers; lock order: mu → recs
	chains []chainRefs  // record number -> chain; no refs: no chain yet
	wedged bool         // an append or Complete failed since Open (see ErrWedged)
}

// chainRefs is all a record's custody chain keeps in RAM: where each event
// lives on the medium and the hash of the last one. The head's event was
// MAC- or signature-checked when it entered the tracker, and every event hash
// covers its predecessor's, so a chain read back from the medium that links
// up and ends in head is the chain that was authenticated.
type chainRefs struct {
	head [32]byte
	refs []blockstore.Ref
}

// next returns the index and predecessor hash the chain's next event must
// carry.
func (c chainRefs) next() (uint64, [32]byte) {
	return uint64(len(c.refs)), c.head
}

// Config configures a Tracker.
type Config struct {
	Store  blockstore.Store // persistence; required
	Signer *vcrypto.Signer  // this system's signing identity; required
	System string           // this system's name, recorded in events
	Now    func() time.Time // nil means time.Now
	// Records numbers the records the tracker holds chains for: the table a
	// shard shares among its per-record stores. Nil means a private one.
	Records *recno.Table
}

// macLabel derives the stored-event MAC key from the signer's seed.
const macLabel = "provenance/custody-mac"

// Open creates a Tracker, replaying persisted custody events. Every link and
// every MAC is verified on load, and the signature of an event stored before
// MACs (layout v1 or v2); a tampered chain prevents opening.
func Open(cfg Config) (*Tracker, error) {
	if cfg.Store == nil {
		return nil, errors.New("provenance: Config.Store is required")
	}
	if cfg.Signer == nil {
		return nil, errors.New("provenance: Config.Signer is required")
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	recs := cfg.Records
	if recs == nil {
		recs = recno.New()
	}
	tr := &Tracker{
		store:  cfg.Store,
		signer: cfg.Signer,
		mac:    vcrypto.NewKeyedMAC(cfg.Signer.DeriveKey(macLabel)),
		system: cfg.System,
		now:    now,
		recs:   recs,
	}
	next := func(id string) (uint64, [32]byte) { return tr.chain(id).next() }
	err := cfg.Store.Scan(func(ref blockstore.Ref, data []byte) error {
		e, err := tr.decode(data, next)
		if err != nil {
			return err
		}
		// decode checked a v3 event's MAC. An older event carries a signature
		// instead; the medium stores no event hash, so an edited one shows up
		// as a signature over a hash its custodian never signed.
		if data[0] != storedVersion {
			if err := checkSignature(e); err != nil {
				return fmt.Errorf("%w: %w", ErrChainBroken, err)
			}
		}
		tr.extend(e.Record, ref, e.Hash)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("provenance: replaying custody log: %w", err)
	}
	return tr, nil
}

// encode is e's stored layout, MACed under the tracker's key.
func (tr *Tracker) encode(e Event) []byte {
	return sealStored(encodeStored(e, tr.signer.Public()), tr.mac, e.Hash)
}

// decode reads a stored event (see decodeStored).
func (tr *Tracker) decode(data []byte, place func(record string) (uint64, [32]byte)) (Event, error) {
	return decodeStored(data, tr.signer.Public(), tr.mac, place)
}

// chain returns id's chain as of now, empty if it has none; the caller holds
// tr.mu. It never numbers id.
func (tr *Tracker) chain(id string) chainRefs {
	if n, ok := tr.recs.Find(id); ok && int(n) < len(tr.chains) {
		return tr.chains[n]
	}
	return chainRefs{}
}

// extend records that id's next event lives at ref and hashes to hash. The
// caller holds tr.mu exclusively (or, in Open, is the only holder of tr).
func (tr *Tracker) extend(id string, ref blockstore.Ref, hash [32]byte) {
	n := tr.recs.Intern(id)
	tr.chains = recno.Grow(tr.chains, n)
	c := &tr.chains[n]
	c.refs = append(c.refs, ref)
	c.head = hash
}

// Record appends a custody event for record id performed by actor, with the
// record content hash at this moment. peer names the counterpart system for
// migration events. The completed event is returned unsigned: the medium
// holds it under the tracker's MAC, and Export signs it when it leaves.
func (tr *Tracker) Record(id string, typ EventType, actor string, contentHash [32]byte, peer string) (Event, error) {
	return tr.append(id, typ, actor, contentHash, peer, tr.now())
}

// RecordAt appends a committed mutation's custody event at the mutation's
// own time at, so the event is the same whether the live run appends it or
// Complete does at the next open.
func (tr *Tracker) RecordAt(id string, typ EventType, actor string, contentHash [32]byte, at time.Time) error {
	_, err := tr.append(id, typ, actor, contentHash, "", at)
	return err
}

// Complete is RecordAt unless id's chain already holds an event of type typ
// with content hash contentHash: a crash only cuts a medium's tail, so
// replaying a log of mutations through Complete appends each lost event once,
// in log order. It reads id's chain back from the medium, so it is recovery's
// call, not the live path's. The caller serializes a record's mutations.
func (tr *Tracker) Complete(id string, typ EventType, actor string, contentHash [32]byte, at time.Time) error {
	chain, err := tr.Chain(id)
	if err != nil && !errors.Is(err, ErrUnknownRecord) {
		tr.mu.Lock()
		tr.wedged = true // the event may be owed: nothing may land ahead of it
		tr.mu.Unlock()
		return err
	}
	if slices.ContainsFunc(chain, func(e Event) bool { return e.Type == typ && e.ContentHash == contentHash }) {
		return nil
	}
	return tr.RecordAt(id, typ, actor, contentHash, at)
}

// Wedged reports whether an append or Complete failed since Open.
func (tr *Tracker) Wedged() bool {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.wedged
}

// append persists the tracker's own event for id at time at.
func (tr *Tracker) append(id string, typ EventType, actor string, contentHash [32]byte, peer string, at time.Time) (Event, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.wedged {
		return Event{}, ErrWedged
	}
	index, prev := tr.chain(id).next()
	e := Event{
		Record:      id,
		Index:       index,
		Type:        typ,
		Timestamp:   at.UTC(),
		Actor:       actor,
		System:      tr.system,
		Peer:        peer,
		ContentHash: contentHash,
		PrevHash:    prev,
	}
	e.Hash = eventHash(e)
	e.SignerKey = tr.signer.Public()
	ref, err := tr.store.Append(tr.encode(e))
	if err != nil {
		tr.wedged = true
		return Event{}, fmt.Errorf("provenance: persisting custody event: %w", err)
	}
	tr.extend(id, ref, e.Hash)
	return e, nil
}

// Adopt appends externally produced custody events for record id (e.g. the
// history that accompanies a migrated record) to this tracker, verifying
// every link and signature before it persists any of them; an adopted event
// keeps its custodian's signature on the medium, beside the tracker's MAC.
// The adopted history must either start id's chain or extend it, and every
// event must name id. A rejected history leaves nothing behind, so a
// corrected one can be adopted in its place.
func (tr *Tracker) Adopt(id string, events []Event) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.wedged {
		return ErrWedged
	}
	index, prev := tr.chain(id).next()
	if err := checkFrom(id, events, index, prev); err != nil {
		return err
	}
	for _, e := range events {
		ref, err := tr.store.Append(tr.encode(e))
		if err != nil {
			tr.wedged = true
			return fmt.Errorf("provenance: persisting adopted event: %w", err)
		}
		tr.extend(id, ref, e.Hash)
	}
	return nil
}

// CheckChain verifies events as the whole custody chain of record id, from
// its first event: every event names id, links to the one before it, and
// carries a valid custodian signature. It needs no tracker and persists
// nothing, so an importer can refuse a chain before committing anything.
func CheckChain(id string, events []Event) error {
	return checkFrom(id, events, 0, [32]byte{})
}

// checkFrom verifies events as id's chain continuing at index after the
// event that hashed to prev.
func checkFrom(id string, events []Event, index uint64, prev [32]byte) error {
	for _, e := range events {
		if err := checkLink(e, id, index, prev); err != nil {
			return err
		}
		if err := checkSignature(e); err != nil {
			return err
		}
		index, prev = index+1, e.Hash
	}
	return nil
}

// checkLink validates e as event index of record id's chain, following the
// event that hashed to prev: record, position, hash link, and content hash.
func checkLink(e Event, id string, index uint64, prev [32]byte) error {
	if e.Record != id {
		return fmt.Errorf("%w: record %s: event %d belongs to record %s", ErrChainBroken, id, index, e.Record)
	}
	if e.Index != index {
		return fmt.Errorf("%w: record %s: index %d, want %d", ErrChainBroken, id, e.Index, index)
	}
	if e.PrevHash != prev {
		return fmt.Errorf("%w: record %s: prev-hash mismatch at index %d", ErrChainBroken, id, index)
	}
	if eventHash(e) != e.Hash {
		return fmt.Errorf("%w: record %s: content hash mismatch at index %d", ErrChainBroken, id, index)
	}
	return nil
}

// checkSignature validates e's custodian signature over its hash.
func checkSignature(e Event) error {
	if err := e.SignerKey.Verify(e.Hash[:], e.Signature); err != nil {
		return fmt.Errorf("%w: record %s index %d: %v", ErrBadSignature, e.Record, e.Index, err)
	}
	return nil
}

// Chain returns the custody chain for id in order, as of the call. It reads,
// decodes, MAC-checks and link-checks each event from the medium outside the
// tracker lock, and requires the last to hash to the chain's resident head; a
// read, decode, MAC, link or head failure is an error wrapping
// ErrChainBroken, never a shorter chain. The tracker's own events come back
// unsigned; Export is the chain that leaves the system.
func (tr *Tracker) Chain(id string) ([]Event, error) {
	tr.mu.RLock()
	c := tr.chain(id)
	tr.mu.RUnlock()
	refs, head := c.refs, c.head
	if len(refs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRecord, id)
	}
	chain := make([]Event, len(refs))
	var prev [32]byte
	for i, ref := range refs {
		data, err := tr.store.Read(ref)
		var e Event
		if err == nil {
			e, err = tr.decode(data, func(string) (uint64, [32]byte) { return uint64(i), prev })
		}
		if errors.Is(err, ErrChainBroken) {
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("%w: record %s: reading event %d: %w", ErrChainBroken, id, i, err)
		}
		if e.Record != id {
			return nil, fmt.Errorf("%w: record %s: event %d belongs to record %s", ErrChainBroken, id, i, e.Record)
		}
		chain[i], prev = e, e.Hash
	}
	if prev != head {
		return nil, fmt.Errorf("%w: record %s: medium ends in a different event than the tracker's head", ErrChainBroken, id)
	}
	return chain, nil
}

// Export returns id's custody chain as it leaves the system, in a migration
// bundle or a backup, with every event signed: the tracker's own events,
// which its medium holds under a MAC, are signed here, and the others keep
// the signature they were stored with. Ed25519 is deterministic (RFC 8032),
// so an event carries the same signature every time it is exported.
func (tr *Tracker) Export(id string) ([]Event, error) {
	chain, err := tr.Chain(id)
	if err != nil {
		return nil, err
	}
	for i := range chain {
		if chain[i].Signature == nil {
			chain[i].Signature = tr.signer.Sign(chain[i].Hash[:])
		}
	}
	return chain, nil
}

// Verify re-validates the full custody chain for id as the medium holds it:
// linkage, hashes and MACs (Chain), and every signature an event carries — a
// foreign custodian's on an adopted event, or the one a pre-MAC medium
// stored. The tracker's own MACed events need no Ed25519 work. trusted, when
// non-nil, restricts acceptable signers to its keys (in String form): an
// empty map trusts no signer, so it fails every chain. Nil accepts any signer
// whose signature checks.
func (tr *Tracker) Verify(id string, trusted map[string]bool) error {
	chain, err := tr.Chain(id)
	if err != nil {
		return err
	}
	own := tr.signer.Public()
	for _, e := range chain {
		if e.Signature != nil || !bytes.Equal(e.SignerKey, own) {
			if err := checkSignature(e); err != nil {
				return err
			}
		}
		if trusted != nil && !trusted[e.SignerKey.String()] {
			return fmt.Errorf("%w: record %s index %d signed by untrusted key %s", ErrBadSignature, id, e.Index, e.SignerKey)
		}
	}
	return nil
}

// VerifyAll verifies every record's chain; it returns the number of records
// checked and the first error.
func (tr *Tracker) VerifyAll(trusted map[string]bool) (int, error) {
	tr.mu.RLock()
	var ids []string
	for n := range tr.chains {
		if len(tr.chains[n].refs) > 0 {
			ids = append(ids, tr.recs.ID(uint32(n)))
		}
	}
	tr.mu.RUnlock()
	for i, id := range ids {
		if err := tr.Verify(id, trusted); err != nil {
			return i, err
		}
	}
	return len(ids), nil
}

// Custodians returns, in order of first appearance, the systems that have
// held custody of id — the paper's "proper chain of custody for the
// ownership and transfer of records".
func (tr *Tracker) Custodians(id string) ([]string, error) {
	chain, err := tr.Chain(id)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	for _, e := range chain {
		if !seen[e.System] {
			seen[e.System] = true
			out = append(out, e.System)
		}
	}
	return out, nil
}
