// Package provenance implements chain-of-custody tracking for records.
//
// HIPAA §164.310(d)(2)(iii) requires "a record of the movements of hardware
// and electronic media and any person responsible therefore", and the paper
// singles out trustworthy provenance as the feature missing from every
// storage model it surveys. This package keeps, per record, a hash-linked and
// signed chain of custody events: creation, correction, migration out/in,
// backup, restore, and shredding. Each event names the responsible actor and
// system, commits to the record content hash at that moment, links to its
// predecessor, and is signed by the system that performed the action — so a
// record arriving from a migration carries a verifiable history spanning
// systems, signed by each custodian in turn.
package provenance

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"medvault/internal/blockstore"
	"medvault/internal/frame"
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
	// ErrUnknownRecord indicates no custody chain exists for the record.
	ErrUnknownRecord = errors.New("provenance: unknown record")
	// ErrCorrupt indicates an undecodable persisted event.
	ErrCorrupt = errors.New("provenance: corrupt event encoding")
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
	Signature   []byte            // over Hash
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
	system string
	now    func() time.Time
	chains map[string][]Event
}

// Config configures a Tracker.
type Config struct {
	Store  blockstore.Store // persistence; required
	Signer *vcrypto.Signer  // this system's signing identity; required
	System string           // this system's name, recorded in events
	Now    func() time.Time // nil means time.Now
}

// Open creates a Tracker, replaying persisted custody events. Chains are
// verified on load; a tampered chain prevents opening.
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
	tr := &Tracker{
		store:  cfg.Store,
		signer: cfg.Signer,
		system: cfg.System,
		now:    now,
		chains: make(map[string][]Event),
	}
	err := cfg.Store.Scan(func(_ blockstore.Ref, data []byte) error {
		e, err := DecodeEvent(data)
		if err != nil {
			return err
		}
		if err := verifyLink(tr.chains[e.Record], e); err != nil {
			return err
		}
		tr.chains[e.Record] = append(tr.chains[e.Record], e)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("provenance: replaying custody log: %w", err)
	}
	return tr, nil
}

// Record appends a custody event for record id performed by actor, with the
// record content hash at this moment. peer names the counterpart system for
// migration events. The completed, signed event is returned.
func (tr *Tracker) Record(id string, typ EventType, actor string, contentHash [32]byte, peer string) (Event, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	chain := tr.chains[id]
	e := Event{
		Record:      id,
		Index:       uint64(len(chain)),
		Type:        typ,
		Timestamp:   tr.now().UTC(),
		Actor:       actor,
		System:      tr.system,
		Peer:        peer,
		ContentHash: contentHash,
	}
	if len(chain) > 0 {
		e.PrevHash = chain[len(chain)-1].Hash
	}
	e.Hash = eventHash(e)
	e.SignerKey = tr.signer.Public()
	e.Signature = tr.signer.Sign(e.Hash[:])
	if _, err := tr.store.Append(EncodeEvent(e)); err != nil {
		return Event{}, fmt.Errorf("provenance: persisting custody event: %w", err)
	}
	tr.chains[id] = append(chain, e)
	return e, nil
}

// Adopt appends externally produced custody events (e.g. the history that
// accompanies a migrated record) to this tracker, verifying each link and
// signature. The adopted history must either start a new chain or extend the
// record's existing one.
func (tr *Tracker) Adopt(events []Event) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, e := range events {
		if err := verifyLink(tr.chains[e.Record], e); err != nil {
			return err
		}
		if _, err := tr.store.Append(EncodeEvent(e)); err != nil {
			return fmt.Errorf("provenance: persisting adopted event: %w", err)
		}
		tr.chains[e.Record] = append(tr.chains[e.Record], e)
	}
	return nil
}

// verifyLink validates e as the next link after chain.
func verifyLink(chain []Event, e Event) error {
	if e.Index != uint64(len(chain)) {
		return fmt.Errorf("%w: record %s: index %d, want %d", ErrChainBroken, e.Record, e.Index, len(chain))
	}
	var wantPrev [32]byte
	if len(chain) > 0 {
		wantPrev = chain[len(chain)-1].Hash
	}
	if e.PrevHash != wantPrev {
		return fmt.Errorf("%w: record %s: prev-hash mismatch at index %d", ErrChainBroken, e.Record, e.Index)
	}
	if eventHash(e) != e.Hash {
		return fmt.Errorf("%w: record %s: content hash mismatch at index %d", ErrChainBroken, e.Record, e.Index)
	}
	if err := e.SignerKey.Verify(e.Hash[:], e.Signature); err != nil {
		return fmt.Errorf("%w: record %s index %d: %v", ErrBadSignature, e.Record, e.Index, err)
	}
	return nil
}

// Chain returns a copy of the custody chain for id in order.
func (tr *Tracker) Chain(id string) ([]Event, error) {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	chain, ok := tr.chains[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRecord, id)
	}
	return append([]Event(nil), chain...), nil
}

// Verify re-validates the full custody chain for id: linkage, hashes, and
// every custodian signature. trusted, when non-nil, restricts acceptable
// signers; an empty map accepts any internally consistent signer.
func (tr *Tracker) Verify(id string, trusted map[string]bool) error {
	chain, err := tr.Chain(id)
	if err != nil {
		return err
	}
	var prefix []Event
	for _, e := range chain {
		if err := verifyLink(prefix, e); err != nil {
			return err
		}
		if trusted != nil && !trusted[e.SignerKey.String()] {
			return fmt.Errorf("%w: record %s index %d signed by untrusted key %s", ErrBadSignature, id, e.Index, e.SignerKey)
		}
		prefix = append(prefix, e)
	}
	return nil
}

// VerifyAll verifies every record's chain; it returns the number of records
// checked and the first error.
func (tr *Tracker) VerifyAll(trusted map[string]bool) (int, error) {
	tr.mu.RLock()
	ids := make([]string, 0, len(tr.chains))
	for id := range tr.chains {
		ids = append(ids, id)
	}
	tr.mu.RUnlock()
	for i, id := range ids {
		if err := tr.Verify(id, trusted); err != nil {
			return i, err
		}
	}
	return len(ids), nil
}

// Records returns the IDs that have custody chains.
func (tr *Tracker) Records() []string {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	out := make([]string, 0, len(tr.chains))
	for id := range tr.chains {
		out = append(out, id)
	}
	return out
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
