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
// Events live in the append-only blockstore, in a layout that stores only
// what the tracker cannot recompute (codec.go), or, until a checkpoint, in
// the owner's log: a committed mutation's entry already holds its event, so
// Pend only chains it, and Flush writes every such pending event at the
// owner's checkpoint. In RAM the tracker keeps, per record, each event's
// blockstore.Ref (a pending event's names its log entry, see PendingSegment)
// and the chain's head hash. Open checks every link and MAC as events enter,
// and Adopt every link and signature; Chain reads the events back — a pending
// one through Config.Pending — and checks their links, their MACs and that
// they end in the head, and Verify adds a check of every signature an event
// carries, so what both vouch for is the bytes on the medium, not a copy of
// them.
package provenance

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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

// PendingSegment is the Ref segment of a pending event (see Pend): its
// offset is the place in the owner's log of the entry that holds the event,
// and Config.Pending reads it back from there.
const PendingSegment = math.MaxUint32

// pending reports whether ref names a pending event rather than a frame in
// the store.
func pending(ref blockstore.Ref) bool { return ref.Segment == PendingSegment }

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
	mu      sync.RWMutex
	store   blockstore.Store
	pending func(blockstore.Ref) (Event, error) // Config.Pending
	signer  *vcrypto.Signer
	mac     *vcrypto.KeyedMAC // stored-event MACs, keyed from the signer's seed
	system  string
	now     func() time.Time
	recs    *recno.Table // record numbers; lock order: mu → recs
	chains  []chainRefs  // record number -> chain; no refs: no chain yet
	wedged  bool         // an append failed since Open (see ErrWedged)
}

// chainRefs is all a record's custody chain keeps in RAM: where each event
// lives, on the medium or pending in the owner's log, and the hash of the
// last one. The head's event was MAC- or signature-checked when it entered
// the tracker, or built by it, and every event hash covers its
// predecessor's, so a chain read back that links up and ends in head is the
// chain that was authenticated. A chain reaches the medium in order, so its
// pending events are its last ones.
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
	// Pending reads back the event a pending ref names (see Pend): the
	// Record, Type, Actor, Timestamp and ContentHash of the mutation logged
	// there. The tracker fills in the rest and checks the result against the
	// chain, so an edited entry breaks it. Required only by Pend's callers.
	Pending func(ref blockstore.Ref) (Event, error)
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
		store:   cfg.Store,
		pending: cfg.Pending,
		signer:  cfg.Signer,
		mac:     vcrypto.NewKeyedMAC(cfg.Signer.DeriveKey(macLabel)),
		system:  cfg.System,
		now:     now,
		recs:    recs,
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
// record content hash at this moment, after writing id's pending events.
// peer names the counterpart system for migration events. The completed
// event is returned unsigned: the medium holds it under the tracker's MAC,
// and Export signs it when it leaves.
func (tr *Tracker) Record(id string, typ EventType, actor string, contentHash [32]byte, peer string) (Event, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := tr.flush(id); err != nil {
		return Event{}, err
	}
	e := tr.next(Event{Record: id, Type: typ, Actor: actor, ContentHash: contentHash, Peer: peer, Timestamp: tr.now()})
	if err := tr.append(e); err != nil {
		return Event{}, err
	}
	return e, nil
}

// Pend chains a committed mutation's custody event — the one Record would
// append at the mutation's own time at — onto id's chain in RAM without
// writing it. The mutation's entry, at ref in the owner's log (segment
// PendingSegment), holds the event until Flush, or a Record or Adopt on id,
// writes it. The caller serializes a record's mutations.
func (tr *Tracker) Pend(ref blockstore.Ref, id string, typ EventType, actor string, contentHash [32]byte, at time.Time) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	e := tr.next(Event{Record: id, Type: typ, Actor: actor, ContentHash: contentHash, Timestamp: at})
	tr.extend(id, ref, e.Hash)
}

// Complete is Pend unless id's chain already holds an event of type typ with
// content hash contentHash on the medium: replay's call, for each logged
// mutation in log order. A chain reaches the medium in order and a crash only
// cuts its tail, so the mutations whose events reached it are the first of
// id's: once id's chain has a pending event, Complete reads nothing.
// Otherwise it reads the chain back from the medium, never through
// Config.Pending, since the owner's log is being replayed.
func (tr *Tracker) Complete(ref blockstore.Ref, id string, typ EventType, actor string, contentHash [32]byte, at time.Time) error {
	tr.mu.RLock()
	refs := tr.chain(id).refs
	tr.mu.RUnlock()
	if len(refs) > 0 && !pending(refs[len(refs)-1]) {
		chain, err := tr.Chain(id)
		if err != nil {
			return err
		}
		if slices.ContainsFunc(chain, func(e Event) bool { return e.Type == typ && e.ContentHash == contentHash }) {
			return nil
		}
	}
	tr.Pend(ref, id, typ, actor, contentHash, at)
	return nil
}

// Flush writes every pending event to the medium, each record's in chain
// order, and points its chain there: the owner's checkpoint calls it before
// it syncs the store and drops its log. A failed append wedges the tracker,
// and a wedged tracker refuses while any event is pending.
func (tr *Tracker) Flush() error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for n := range tr.chains {
		if err := tr.flush(tr.recs.ID(uint32(n))); err != nil {
			return err
		}
	}
	return nil
}

// flush writes id's pending events, oldest first, reading the chain back so
// that only events that still end in its head are MACed. The caller holds
// tr.mu exclusively. The chain gets fresh refs rather than edited ones, since
// a reader may hold the old.
func (tr *Tracker) flush(id string) error {
	n, ok := tr.recs.Find(id)
	if !ok || int(n) >= len(tr.chains) {
		return nil
	}
	c := &tr.chains[n]
	first := len(c.refs)
	for first > 0 && pending(c.refs[first-1]) {
		first--
	}
	if first == len(c.refs) {
		return nil
	}
	chain, err := tr.read(id, *c)
	if err != nil {
		return err
	}
	c.refs = slices.Clone(c.refs)
	for i := first; i < len(c.refs); i++ {
		ref, err := tr.write(chain[i])
		if err != nil {
			return err
		}
		c.refs[i] = ref
	}
	return nil
}

// Wedged reports whether an append failed since Open.
func (tr *Tracker) Wedged() bool {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.wedged
}

// next completes e, whose Record, Type, Actor, Timestamp, ContentHash and
// Peer are set, as the tracker's own event that would extend its record's
// chain now; the caller holds tr.mu.
func (tr *Tracker) next(e Event) Event {
	e.Index, e.PrevHash = tr.chain(e.Record).next()
	return tr.own(e)
}

// own completes e, whose place in its chain is set too, as the tracker's own
// event.
func (tr *Tracker) own(e Event) Event {
	e.Timestamp = e.Timestamp.UTC()
	e.System = tr.system
	e.Hash = eventHash(e)
	e.SignerKey = tr.signer.Public()
	return e
}

// append persists e, the next event of its record's chain, and extends the
// chain. The caller holds tr.mu exclusively.
func (tr *Tracker) append(e Event) error {
	ref, err := tr.write(e)
	if err == nil {
		tr.extend(e.Record, ref, e.Hash)
	}
	return err
}

// write persists e; a failure wedges the tracker, which then writes nothing
// more. The caller holds tr.mu exclusively.
func (tr *Tracker) write(e Event) (blockstore.Ref, error) {
	if tr.wedged {
		return blockstore.Ref{}, ErrWedged
	}
	ref, err := tr.store.Append(tr.encode(e))
	if err != nil {
		tr.wedged = true
		return ref, fmt.Errorf("provenance: persisting custody event: %w", err)
	}
	return ref, nil
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
	if err := tr.flush(id); err != nil {
		return err
	}
	for _, e := range events {
		if err := tr.append(e); err != nil {
			return err
		}
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
// decodes, MAC-checks and link-checks each event outside the tracker lock —
// from the medium, or, for a pending event, rebuilt through Config.Pending —
// and requires the last to hash to the chain's resident head; a read,
// decode, MAC, link or head failure is an error wrapping ErrChainBroken,
// never a shorter chain. The tracker's own events come back unsigned; Export
// is the chain that leaves the system.
func (tr *Tracker) Chain(id string) ([]Event, error) {
	tr.mu.RLock()
	c := tr.chain(id)
	tr.mu.RUnlock()
	if len(c.refs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRecord, id)
	}
	return tr.read(id, c)
}

// read reads c, id's chain, back and checks it (see Chain).
func (tr *Tracker) read(id string, c chainRefs) ([]Event, error) {
	chain := make([]Event, len(c.refs))
	var prev [32]byte
	for i, ref := range c.refs {
		e, err := tr.event(ref, uint64(i), prev)
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
	if prev != c.head {
		return nil, fmt.Errorf("%w: record %s: medium ends in a different event than the tracker's head", ErrChainBroken, id)
	}
	return chain, nil
}

// event reads the event at ref as event index of its chain, after the one
// that hashed to prev.
func (tr *Tracker) event(ref blockstore.Ref, index uint64, prev [32]byte) (Event, error) {
	if !pending(ref) {
		data, err := tr.store.Read(ref)
		if err != nil {
			return Event{}, err
		}
		return tr.decode(data, func(string) (uint64, [32]byte) { return index, prev })
	}
	if tr.pending == nil {
		return Event{}, errors.New("provenance: a pending event, and no Config.Pending to read it")
	}
	e, err := tr.pending(ref)
	if err != nil {
		return Event{}, err
	}
	e.Index, e.PrevHash = index, prev
	return tr.own(e), nil
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
