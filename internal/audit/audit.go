// Package audit implements MedVault's tamper-evident audit trail.
//
// HIPAA requires recording every access to EPHI, and the paper requires that
// the log itself be trustworthy: an insider who reads or alters a record must
// not be able to scrub the evidence. Three mechanisms compose:
//
//  1. Every event's hash covers its predecessor's (a hash chain), so
//     deleting, reordering or splicing events breaks the chain.
//  2. Every event carries an HMAC tag under a key derived from the vault
//     master secret over its place, its content and its link — the first 8
//     bytes of its predecessor's hash, which a reader knows and the event
//     does not store — so an insider without the key cannot re-forge the
//     chain after editing it, an event spliced in after another predecessor
//     fails at its successor, and a reader can check one event from its own
//     bytes and its link.
//  3. Checkpoints — Ed25519-signed statements of (sequence, chain head) — are
//     emitted periodically and can be stored off-system; verification against
//     any remembered checkpoint detects wholesale log replacement.
//
// Events live in the append-only blockstore, or, with a tail (Attach), until
// the owner's checkpoint in the owner's log: a standalone event as an entry
// of its own, and an event whose fields the owner's entry already holds
// folded into that entry (codec.go). Either way an event stores only what a
// reader cannot recompute: an actor, record ID or detail the log already
// holds is stored as its number in that field's symbol table. In RAM the log
// keeps, per event, its offset in its segment, its link and a place, a
// uvarint gap of a byte or two, in the ascending-seq posting lists of the
// filters the API exposes (record, actor, denied); per segment, its first
// event's seq; and, per distinct symbol value, its entry in the field's
// recno.Table, whose number is the value's symbol number and indexes its
// posting list. A query snapshots the shortest list under the log lock,
// releases it, and reads, decodes and checks only the events that list names;
// verification streams the medium, rebuilding the tables from it, so what
// it vouches for is the bytes on disk, not a copy of them.
package audit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"medvault/internal/blockstore"
	"medvault/internal/frame"
	"medvault/internal/obs"
	"medvault/internal/recno"
	"medvault/internal/vcrypto"
)

// Audit instrumentation: event volume by outcome and the time each append
// (hash, MAC, persist) costs the operation that triggered it.
var metAppendSeconds = obs.Default.Histogram("medvault_audit_append_seconds",
	"Latency of one audit-chain append (hash, MAC, persist).", obs.LatencyBuckets)

func eventsCounter(outcome Outcome) *obs.Counter {
	return obs.Default.Counter("medvault_audit_events_total",
		"Audit events appended, by outcome.", obs.L("outcome", string(outcome)))
}

func init() {
	for _, o := range []Outcome{OutcomeAllowed, OutcomeDenied, OutcomeError} {
		eventsCounter(o) // every defined outcome is on /metrics from startup, at 0
	}
}

// Action classifies an audited operation.
type Action string

// Audited actions. The set covers the lifecycle events the regulations call
// out: access and modification (HIPAA Privacy Rule), disposition and media
// movement (§164.310(d)(2)), and migration/custody (accountability).
const (
	ActionCreate     Action = "create"
	ActionRead       Action = "read"
	ActionCorrect    Action = "correct"
	ActionSearch     Action = "search"
	ActionDelete     Action = "delete" // crypto-shred at end of retention
	ActionMigrateOut Action = "migrate-out"
	ActionMigrateIn  Action = "migrate-in"
	ActionBackup     Action = "backup"
	ActionRestore    Action = "restore"
	ActionVerify     Action = "verify"
	ActionBreakGlass Action = "break-glass"
	ActionPolicy     Action = "policy"
)

// Outcome records whether the attempted action was permitted.
type Outcome string

// Outcomes. Denied attempts are audited too: a pattern of denials is exactly
// what a compliance officer investigates.
const (
	OutcomeAllowed Outcome = "allowed"
	OutcomeDenied  Outcome = "denied"
	OutcomeError   Outcome = "error"
)

// Event is one audit record. Seq and Hash are not stored: a reader knows the
// one and recomputes the other (codec.go).
type Event struct {
	Seq       uint64    // position in the chain, starting at 0
	Timestamp time.Time // UTC
	Actor     string    // authenticated principal
	Action    Action
	Record    string // affected record ID ("" for store-level events)
	Version   uint64 // affected version (0 when not applicable)
	Outcome   Outcome
	Detail    string // free-form context (never PHI; callers must not put PHI here)
	Trace     string // trace ID of the operation that produced the event ("" when untraced)
	// PrevHash is the previous event's Hash (zero for Seq 0), and Hash is
	// eventHash: this event's place and content || PrevHash. A v7 event
	// stores neither, so only Append and a reader walking the chain (Open,
	// Verify, an unfiltered Search) know them; an event Search reads from a
	// posting list has both zero.
	PrevHash [32]byte
	Hash     [32]byte
	// MAC is an HMAC under the audit key: a v7 event's vcrypto.TagSize-byte
	// tag over macInput (place, content and link), a v6 or v5 event's whole
	// HMAC over macInput, an older layout's over Hash.
	MAC []byte
}

// Errors returned by the package.
var (
	// ErrChainBroken indicates the hash chain does not link.
	ErrChainBroken = errors.New("audit: hash chain broken")
	// ErrBadMAC indicates an event MAC failed: the event was forged or the
	// log rewritten by someone without the audit key.
	ErrBadMAC = errors.New("audit: event MAC invalid")
	// ErrCheckpointMismatch indicates the log disagrees with a remembered
	// signed checkpoint.
	ErrCheckpointMismatch = errors.New("audit: checkpoint mismatch")
	// ErrCorrupt indicates an undecodable persisted event.
	ErrCorrupt = errors.New("audit: corrupt event encoding")
	// ErrWedged indicates an earlier append failed: the log appends nothing
	// more until it is reopened, so no event lands after the one it lost.
	ErrWedged = errors.New("audit: an earlier append failed; reopen to append")

	// errNoTail refuses a call only a log with a tail serves (Attach).
	errNoTail = errors.New("audit: the log has no tail")
)

// Checkpoint is a signed commitment to the chain state after Seq events.
type Checkpoint struct {
	Seq       uint64   // number of events committed
	Head      [32]byte // hash of the last committed event
	Timestamp time.Time
	Signature []byte
}

func checkpointBytes(seq uint64, head [32]byte, ts time.Time) []byte {
	b := binary.BigEndian.AppendUint64([]byte("medvault/audit-checkpoint/v1\x00"), seq)
	return frame.AppendTime(append(b, head[:]...), ts)
}

// Log is a tamper-evident audit log. Safe for concurrent use.
type Log struct {
	mu       sync.RWMutex
	store    blockstore.Store
	tail     *Tail // nil: every event is appended to store
	mac      *vcrypto.KeyedMAC
	signer   *vcrypto.Signer
	now      func() time.Time
	places   places    // where each event lives, and its link
	syms     *symbols  // the log's own: it numbers values no shard registers
	byRecord []posting // by record symbol number
	byActor  []posting // by actor symbol number
	denied   posting   // events with Outcome == OutcomeDenied
	lastHash [32]byte
	// shown is how many events a reader may read: with a tail, those whose
	// entries are written (sequenced ones may still be in flight), and
	// shownHead is event shown-1's hash.
	shown     uint64
	shownHead [32]byte
	// tailSyms is each symbol table's size when the tail began: Flush's
	// count of the values tail events define.
	tailSyms [numSyms]int
	skip     uint64 // the seq Resume takes its next entry for; an overlap with the store when below len(places.slots)
	resumed  bool   // Resume has placed the tail's first entry
	every    int    // checkpoint interval in events (0 = manual only)
	cps      []Checkpoint
	wedged   bool // an append or Flush failed since Open (see ErrWedged)
}

// pendingSegment is the Ref segment of a tail event: its offset is the place
// of its entry in the owner's log (the convention of the vault's walSegment).
const pendingSegment = math.MaxUint32

// places is where a log's events live and what each links to: the only
// per-event state besides the posting lists. Appends only extend its
// slices, so a copy taken under the log lock stays valid outside it; Flush,
// which runs with no reader in flight, rewrites the tail's slots in place.
type places struct {
	slots  []slot   // slots[seq] is event seq's
	first  []uint64 // first[s] is the seq of segment s's first event, or of the next event when s holds none
	stored uint64   // events in the store; the tail's follow them
	// tail[seq-stored] is tail event seq's offset in the owner's log, at
	// full width: that log is cut only at the owner's checkpoint, so it may
	// outgrow the 4 GiB a slot's offset holds.
	tail []uint64
}

// slot is one event's place in its segment (unused for a tail event) and its
// link, the first linkLen bytes of its predecessor's Hash, which a
// posting-list read hands decodeEvent: 12 B where a blockstore.Ref alone took
// 16.
type slot struct {
	offset uint32
	link   [linkLen]byte
}

// fits reports a stored event whose offset in its segment a slot cannot
// hold.
func fits(ref blockstore.Ref) error {
	if ref.Segment != pendingSegment && ref.Offset > math.MaxUint32 {
		return fmt.Errorf("audit: an event is %d B into segment %d, past the 4 GiB a slot holds", ref.Offset, ref.Segment)
	}
	return nil
}

// add records that event len(p.slots) lives at ref, which fits, and links to
// prev. A tail event (pendingSegment) follows every stored one.
func (p *places) add(ref blockstore.Ref, prev [32]byte) {
	var s slot
	copy(s.link[:], prev[:])
	p.slots = append(p.slots, s)
	if ref.Segment == pendingSegment {
		p.tail = append(p.tail, ref.Offset)
		return
	}
	p.store(ref)
}

// store records that event p.stored, the first not in the store, lives there
// at ref, which fits.
func (p *places) store(ref blockstore.Ref) {
	for uint64(len(p.first)) <= uint64(ref.Segment) {
		p.first = append(p.first, p.stored)
	}
	p.slots[p.stored].offset = uint32(ref.Offset)
	p.stored++
}

// ref is where event seq lives: in the tail, or in the last segment whose
// first event is at or before it.
func (p places) ref(seq uint64) blockstore.Ref {
	if seq >= p.stored {
		return blockstore.Ref{Segment: pendingSegment, Offset: p.tail[seq-p.stored]}
	}
	seg := sort.Search(len(p.first), func(s int) bool { return p.first[s] > seq }) - 1
	return blockstore.Ref{Segment: uint32(seg), Offset: uint64(p.slots[seq].offset)}
}

// posting is an ascending list of seqs, held as the uvarint gap from each
// seq's predecessor (from 0 for the first): one to three bytes an event
// where a []uint64 took eight, so its length in bytes stands in for its
// count. A list of one seq — most records' — holds it in end alone and
// allocates no gaps. Appends only extend gaps, so a copy of the slice taken
// under the log lock stays valid outside it.
type posting struct {
	gaps []byte // empty until the list holds two seqs
	end  uint64 // one past the last seq on the list; 0 when it holds none
}

// add appends seq, which follows every seq on the list.
func (p *posting) add(seq uint64) {
	if p.end > 0 {
		last := p.end - 1
		if len(p.gaps) == 0 {
			p.gaps = binary.AppendUvarint(p.gaps, last)
		}
		p.gaps = binary.AppendUvarint(p.gaps, seq-last)
	}
	p.end = seq + 1
}

// each calls fn with every seq on the list, ascending, until fn fails.
func (p posting) each(fn func(seq uint64) error) error {
	if len(p.gaps) == 0 && p.end > 0 {
		return fn(p.end - 1)
	}
	for gaps, seq := p.gaps, uint64(0); len(gaps) > 0; {
		gap, n := binary.Uvarint(gaps)
		seq, gaps = seq+gap, gaps[n:]
		if err := fn(seq); err != nil {
			return err
		}
	}
	return nil
}

// addTo appends seq to the posting list of symbol number n in lists.
func addTo(lists []posting, n uint32, seq uint64) []posting {
	lists = recno.Grow(lists, n)
	lists[n].add(seq)
	return lists
}

// listOf is the posting list of value s in field f: empty for a value no
// event carries.
func (l *Log) listOf(lists []posting, f int, s string) posting {
	if n, ok := l.syms[f].Find(s); ok {
		return lists[n]
	}
	return posting{}
}

// Config configures a Log.
type Config struct {
	Store              blockstore.Store // persistence; required
	MACKey             vcrypto.Key      // audit MAC key (derive from master)
	Signer             *vcrypto.Signer  // checkpoint signer; required
	Now                func() time.Time // nil means time.Now
	CheckpointInterval int              // events per automatic checkpoint; 0 disables
}

// Open creates a Log over cfg.Store, replaying and verifying any persisted
// events. Opening fails if the persisted chain does not verify — a vault
// must not start on top of a tampered audit trail.
func Open(cfg Config) (*Log, error) {
	if cfg.Store == nil {
		return nil, errors.New("audit: Config.Store is required")
	}
	if cfg.Signer == nil {
		return nil, errors.New("audit: Config.Signer is required")
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	l := &Log{
		store:  cfg.Store,
		mac:    vcrypto.NewKeyedMAC(cfg.MACKey),
		signer: cfg.Signer,
		now:    now,
		every:  cfg.CheckpointInterval,
		syms:   newSymbols(),
	}
	err := l.scan(-1, places{}, l.syms, l.index)
	if err != nil {
		return nil, fmt.Errorf("audit: replaying persisted log: %w", err)
	}
	return l, nil
}

// index is place for an event already on the medium, which a reader may
// read from now on.
func (l *Log) index(ref blockstore.Ref, e Event) error {
	if err := fits(ref); err != nil {
		return err
	}
	l.place(ref, e)
	l.show(e.Seq+1, e.Hash)
	return nil
}

// show lets readers read the first n events, which end in head.
func (l *Log) show(n uint64, head [32]byte) {
	if n > l.shown {
		l.shown, l.shownHead = n, head
	}
}

// place records where e lives (ref, which fits), what it links to and which
// posting lists name it, and numbers the symbol values it is the first to
// carry. The caller holds l.mu exclusively (or, in Open, is the only holder
// of l), and e is on the medium or, with a tail, enqueued to it: a failed
// append defines nothing.
func (l *Log) place(ref blockstore.Ref, e Event) {
	l.places.add(ref, e.PrevHash)
	l.lastHash = e.Hash
	nums := l.syms.define(e)
	if e.Record != "" {
		l.byRecord = addTo(l.byRecord, nums[symRecord], e.Seq)
	}
	if e.Actor != "" {
		l.byActor = addTo(l.byActor, nums[symActor], e.Seq)
	}
	if e.Outcome == OutcomeDenied {
		l.denied.add(e.Seq)
	}
}

var errStopScan = errors.New("audit: stop scan")

// scan streams the medium's first n events (all of them when n < 0) through
// a chainReader numbering symbols in syms, which checks their links and
// MACs, and hands each to fn: the store's, and then, up to n, the tail's in
// pl. A medium that holds fewer than n — the count the caller saw in the
// running log — is a broken chain.
func (l *Log) scan(n int, pl places, syms *symbols, fn func(blockstore.Ref, Event) error) error {
	cr := newChainReader(l.checkMAC, syms)
	err := l.store.Scan(func(ref blockstore.Ref, data []byte) error {
		if int(cr.seq) == n {
			return errStopScan
		}
		e, err := cr.next(nil, data)
		if err != nil {
			return err
		}
		return fn(ref, e)
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return err
	}
	if err == nil && int(cr.seq) < n && cr.seq == pl.stored {
		err = l.scanTail(pl, n, func(ref blockstore.Ref, host *Event, data []byte) error {
			e, err := cr.next(host, data)
			if err == nil {
				err = fn(ref, e)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	if int(cr.seq) < n {
		return fmt.Errorf("%w: medium holds %d events, log has %d", ErrChainBroken, cr.seq, n)
	}
	return nil
}

// scanTail reads the tail's events from the first to event n-1 in one pass
// (Tail.Scan) and hands fn each with its place, which must be the one pl
// holds.
func (l *Log) scanTail(pl places, n int, fn func(ref blockstore.Ref, host *Event, data []byte) error) error {
	seq := pl.stored
	err := l.tail.Scan(int64(pl.ref(seq).Offset), func(off int64, host *Event, data []byte) error {
		if int(seq) == n {
			return errStopScan
		}
		ref := pl.ref(seq)
		if off != int64(ref.Offset) {
			return fmt.Errorf("%w: event %d is at %d in the tail, not %d", ErrChainBroken, seq, off, ref.Offset)
		}
		seq++
		return fn(ref, host, data)
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return fmt.Errorf("%w: reading the tail: %w", ErrChainBroken, err)
	}
	return nil
}

// Append records an event and returns it with chain fields filled in.
// Timestamp, Seq, PrevHash, Hash, and MAC are assigned by the log; caller
// fields in those positions are ignored.
// With a tail, the event is an entry of its own there, and Append returns
// once that entry is written.
func (l *Log) Append(e Event) (Event, error) {
	return l.AppendAll([]Event{e})
}

// AppendAll records the events consecutively under one lock acquisition:
// they occupy adjacent sequence numbers with nothing interleaved. Callers
// whose review logic pairs events by adjacency (an access decision and its
// break-glass flag) must use this instead of consecutive Appends, which
// concurrent operations can interleave. It returns the last event appended.
func (l *Log) AppendAll(events []Event) (Event, error) {
	l.mu.Lock()
	if l.tail != nil {
		var last Event
		var err error
		waits := make([]func() error, 0, 2) // a decision and its break-glass flag
		for _, e := range events {
			var wait func() error
			if e, wait, err = l.enqueue(e, nil); err != nil {
				break
			}
			waits = append(waits, wait)
			last = e
		}
		l.mu.Unlock()
		if err = l.await(waits, last, err); err != nil {
			return Event{}, err
		}
		return last, nil
	}
	defer l.mu.Unlock()
	var last Event
	for _, e := range events {
		var err error
		if last, err = l.appendLocked(e); err != nil {
			return Event{}, err
		}
	}
	return last, nil
}

func (l *Log) appendLocked(e Event) (Event, error) {
	if l.wedged {
		return Event{}, ErrWedged
	}
	start := time.Now()
	defer metAppendSeconds.ObserveSince(start)
	e.Timestamp = l.now()
	nums := l.seal(&e)
	ref, err := l.store.Append(encodeEvent(e, nums))
	if err == nil {
		err = l.index(ref, e)
	}
	if err != nil {
		l.wedged = true
		return Event{}, fmt.Errorf("audit: persisting event %d: %w", e.Seq, err)
	}
	eventsCounter(e.Outcome).Inc()
	if l.every > 0 && len(l.places.slots)%l.every == 0 {
		l.cps = append(l.cps, l.checkpointLocked())
	}
	return e, nil
}

// Tail is the owner's log a Log keeps its events in between the owner's
// checkpoints (Attach). Each event is an entry there: a standalone one's
// payload is its v7 encoding, whose layout byte tells the owner's entry kinds
// apart, and a folded one rides in an entry of the owner's own whose fields
// give the event's actor, record, time and action (AppendFolded).
type Tail struct {
	// Enqueue stages a standalone event's entry to be written, and returns
	// its offset in the owner's log and the wait that returns once it is
	// written.
	Enqueue func(entry []byte) (off int64, wait func() error)
	// Read returns the written entry at off: a standalone event's v7 bytes
	// with host nil, or a folded event's host fields (Actor, Action, Record,
	// Version, Outcome, Timestamp) and its fold.
	Read func(off int64) (host *Event, data []byte, err error)
	// Scan calls fn, in order, with every written entry that holds an
	// event from the one at off on, as Read would return it, until fn
	// fails; data is valid only during the call.
	Scan func(off int64, fn func(off int64, host *Event, data []byte) error) error
	// Wedged is the owner's log's wedge, which is the audit log's: once set,
	// no event reaches the tail.
	Wedged func() error
}

// Attach keeps the log's events after the ones its store holds in t, until
// Flush copies them to the store. The owner attaches the log before it
// replays its own log through Resume and before any append.
func (l *Log) Attach(t Tail) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tail = &t
	l.markTail()
}

// markTail starts the tail at the log's next event. The caller holds l.mu.
func (l *Log) markTail() {
	for f, t := range l.syms {
		l.tailSyms[f] = t.Len()
	}
	l.skip = uint64(len(l.places.slots))
	l.resumed = false
}

// enqueue sequences e as the chain's next event and stages it in the tail
// under the log lock, so chain order is the tail's order: a standalone event
// as an entry of its own (fold nil), stamped now, or, when fold is set, the
// event stamped with its own time as the fold fold hands its host entry. The
// entry's wait, which the caller must call exactly once, returns once it is
// written; then await lets readers read the event. An error means nothing
// was staged, and comes with no wait. The caller holds l.mu exclusively.
func (l *Log) enqueue(e Event, fold func(fold []byte) (int64, func() error)) (Event, func() error, error) {
	if l.tail == nil {
		return Event{}, nil, errNoTail
	}
	if err := l.refuse(); err != nil {
		return Event{}, nil, err
	}
	start := time.Now()
	defer metAppendSeconds.ObserveSince(start)
	if fold == nil {
		e.Timestamp = l.now()
	}
	nums := l.seal(&e)
	var off int64
	var wait func() error
	if fold == nil {
		off, wait = l.tail.Enqueue(encodeEvent(e, nums))
	} else {
		off, wait = fold(appendFold(make([]byte, 0, 8+len(e.Trace)+len(e.MAC)), e, nums))
	}
	l.place(blockstore.Ref{Segment: pendingSegment, Offset: uint64(off)}, e)
	eventsCounter(e.Outcome).Inc()
	return e, wait, nil
}

// await calls the waits of the entries AppendAll staged, in order, and once
// all are written lets readers read every event up to last, or returns the
// first failure, err's if set.
func (l *Log) await(waits []func() error, last Event, err error) error {
	for _, wait := range waits {
		if werr := wait(); err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.show(last.Seq+1, last.Hash)
	l.mu.Unlock()
	return nil
}

// seal makes e, stamped with its Timestamp, the chain's next event: its
// seq, link, hash and tag. It returns the numbers encodeEvent needs. The
// caller holds l.mu exclusively.
func (l *Log) seal(e *Event) [numSyms]int {
	e.Seq = uint64(len(l.places.slots))
	e.Timestamp = e.Timestamp.UTC()
	e.PrevHash = l.lastHash
	var msg []byte
	e.Hash, msg = chainSums(*e, codecVersion)
	e.MAC = l.mac.Tag(nil, msg)
	return l.syms.numbers(*e)
}

// refuse is the error an append meets: the log's own wedge, or its tail's.
// The caller holds l.mu.
func (l *Log) refuse() error {
	if l.wedged {
		return ErrWedged
	}
	if l.tail != nil {
		return l.tail.Wedged()
	}
	return nil
}

// AppendFolded records e, stamped with its own Timestamp, as the chain's
// next event inside the entry put stages in the tail: put gets the event's
// fold — its detail, trace and tag (codec.go) — to end its entry with, and
// returns the entry's offset and wait. The entry's other fields must give
// e's Actor, Record, Action, Version, Outcome and Timestamp back (Tail.Read).
// The wait AppendFolded returns must be called exactly once, in place of
// put's: it waits for the entry to be written, and then lets readers read
// the event. A log without a tail refuses, as does a wedged one, without
// calling put.
func (l *Log) AppendFolded(e Event, put func(fold []byte) (off int64, wait func() error)) func() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, wait, err := l.enqueue(e, put)
	if err != nil {
		return func() error { return err }
	}
	seq, head := e.Seq, e.Hash
	return func() error {
		if err := wait(); err != nil {
			return err
		}
		l.mu.Lock()
		l.show(seq+1, head)
		l.mu.Unlock()
		return nil
	}
}

// Resume takes the next entry of the tail as the owner replays its log: the
// entry at off holds a standalone event (host nil, data its v7 bytes) or a
// folded one (host its fields, data its fold). It checks the event's tag
// against the chain it continues, and numbers and indexes it as an append
// would. A checkpoint cut between copying the tail to the store and cutting
// the owner's log leaves the tail's first events in the store too: replay
// finds the first entry's seq among the store's last events by its tag, and
// skips each event the store already holds after checking its tag there.
func (l *Log) Resume(off int64, host *Event, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, defined, err := parseTail(host, data, l.syms)
	if err != nil {
		return err
	}
	n := uint64(len(l.places.slots))
	if !l.resumed {
		// The first entry starts the tail, or overlaps the store's end.
		l.resumed = true
		if n > 0 && !l.tagged(e, n, l.lastHash[:linkLen]) {
			for s := n; s > 0; s-- {
				if link := l.places.slots[s-1].link; l.tagged(e, s-1, link[:]) {
					l.skip = s - 1
					break
				}
			}
		}
	}
	if l.skip < n {
		if link := l.places.slots[l.skip].link; !l.tagged(e, l.skip, link[:]) {
			return fmt.Errorf("%w at seq %d (%w): the tail's copy in the store differs", ErrBadMAC, l.skip, ErrChainBroken)
		}
		l.skip++
		return nil
	}
	cr := chainReader{check: l.checkMAC, seq: n, prev: l.lastHash, syms: l.syms}
	if e, err = cr.accept(e, defined, codecVersion); err != nil {
		return err
	}
	l.skip++
	return l.index(blockstore.Ref{Segment: pendingSegment, Offset: uint64(off)}, e)
}

// tagged reports whether e's tag checks as event seq's after the event whose
// hash begins with link.
func (l *Log) tagged(e Event, seq uint64, link []byte) bool {
	e.Seq = seq
	copy(e.PrevHash[:], link)
	return l.checkMAC(codecVersion, macInput(e, codecVersion), e.MAC)
}

// Flush copies the tail to the store, oldest event first — a standalone
// event's bytes as they are, a folded one encoded as a standalone v7 event
// with its own tag — syncs the store, and only then points the events'
// places there: the owner calls it before it cuts its log, with no append or
// read in flight, since a read that placed an event in the tail before the
// cut would look for it in the owner's next log; so the tail's slots are
// re-pointed in place, in O(tail). A failure wedges the log, since the store
// may hold part of the copy. A log without a tail refuses.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.tail == nil:
		return errNoTail
	case l.wedged:
		return ErrWedged
	}
	pl := &l.places
	n := uint64(len(pl.slots))
	if l.shown != n {
		return fmt.Errorf("audit: %d events are in flight", n-l.shown)
	}
	if pl.stored == n {
		return nil
	}
	count := l.tailSyms
	refs := make([]blockstore.Ref, 0, n-pl.stored)
	err := l.scanTail(*pl, int(n), func(_ blockstore.Ref, host *Event, data []byte) error {
		enc, err := l.copyable(host, data, &count)
		var ref blockstore.Ref
		if err == nil {
			ref, err = l.store.Append(enc)
		}
		if err == nil {
			err = fits(ref)
		}
		refs = append(refs, ref)
		return err
	})
	if err != nil || len(refs) != int(n-pl.stored) {
		l.wedged = true
		return fmt.Errorf("audit: copying event %d to the store: %w", int(pl.stored)+len(refs)-1, err)
	}
	if err := l.store.Sync(); err != nil {
		l.wedged = true
		return fmt.Errorf("audit: syncing the tail's copy: %w", err)
	}
	for _, ref := range refs {
		pl.store(ref)
	}
	pl.tail = nil
	l.markTail()
	return nil
}

// copyable returns a tail event, read as Tail.Read returns it, in its v7
// encoding as the store holds it. count is each symbol table's size as of
// the event, which its values advance. It checks nothing: the copy carries
// the event's own tag, which every reader of the store checks. The caller
// holds l.mu.
func (l *Log) copyable(host *Event, data []byte, count *[numSyms]int) ([]byte, error) {
	e, _, err := parseTail(host, data, l.syms)
	if err != nil {
		return nil, err
	}
	var nums [numSyms]int
	for f, v := range symbolValues(e) {
		if v == "" {
			continue
		}
		n, _ := l.syms[f].Find(v)
		if nums[f] = int(n); int(n) == count[f] {
			nums[f] = -1 // the event defines it
			count[f]++
		}
	}
	if host == nil {
		return data, nil // the store's Append copies it
	}
	return encodeEvent(e, nums), nil
}

// checkMAC is the log's macCheck. A v7 event's tag is checked through
// VerifyTag, which refuses any other length; an event in a layout no binary
// writes any more carries a whole HMAC-SHA-256, which only this decoding arm
// checks.
func (l *Log) checkMAC(ver byte, msg, mac []byte) bool {
	if ver == codecVersion {
		return l.mac.VerifyTag(msg, mac)
	}
	return l.mac.Verify(msg, mac)
}

// Wedged reports whether an append or a Flush failed since Open, or the
// tail's log wedged.
func (l *Log) Wedged() bool { return l.Refusal() != nil }

// Refusal is the error the next append would fail with before it is
// sequenced: ErrWedged, the tail's wedge, or nil.
func (l *Log) Refusal() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.refuse()
}

// Len returns the number of events a reader reads.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return int(l.shown)
}

// Checkpoint signs and returns a commitment to the current chain state.
func (l *Log) Checkpoint() Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	cp := l.checkpointLocked()
	l.cps = append(l.cps, cp)
	return cp
}

// checkpointLocked signs the events a reader reads: with a tail, an event
// still in flight may never reach it.
func (l *Log) checkpointLocked() Checkpoint {
	ts := l.now().UTC()
	return Checkpoint{
		Seq:       l.shown,
		Head:      l.shownHead,
		Timestamp: ts,
		Signature: l.signer.Sign(checkpointBytes(l.shown, l.shownHead, ts)),
	}
}

// Checkpoints returns all checkpoints issued so far.
func (l *Log) Checkpoints() []Checkpoint {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]Checkpoint(nil), l.cps...)
}

// Verify walks the whole chain as the medium holds it — hash links, content
// hashes and MACs — in one stream, up to the events the running log had
// indexed when it was called, and requires it to end in the log's own head.
// Each of cps must carry pub's signature, and the chain must commit to it:
// its event cp.Seq-1 must hash to cp.Head, the defence against wholesale
// replacement with a freshly built chain. It returns how many events verified.
func (l *Log) Verify(pub vcrypto.PublicKey, cps ...Checkpoint) (n int, err error) {
	hashes := make(map[uint64][32]byte, len(cps)) // by Seq: the hash of event Seq-1
	for _, cp := range cps {
		if err := pub.Verify(checkpointBytes(cp.Seq, cp.Head, cp.Timestamp), cp.Signature); err != nil {
			return 0, fmt.Errorf("audit: checkpoint signature: %w", err)
		}
		hashes[cp.Seq] = [32]byte{}
	}
	l.mu.RLock()
	want, head, pl := int(l.shown), l.shownHead, l.places
	l.mu.RUnlock()
	var last [32]byte
	err = l.scan(want, pl, newSymbols(), func(_ blockstore.Ref, e Event) error {
		n++
		last = e.Hash
		if _, ok := hashes[e.Seq+1]; ok {
			hashes[e.Seq+1] = e.Hash
		}
		return nil
	})
	if err == nil && last != head {
		err = fmt.Errorf("%w: medium ends in a different event than the running log", ErrChainBroken)
	}
	for _, cp := range cps {
		switch {
		case err != nil:
			return n, err
		case cp.Seq > uint64(n):
			err = fmt.Errorf("%w: checkpoint covers %d events, log has %d", ErrCheckpointMismatch, cp.Seq, n)
		case cp.Seq != 0 && hashes[cp.Seq] != cp.Head:
			err = fmt.Errorf("%w: head hash differs at seq %d", ErrCheckpointMismatch, cp.Seq-1)
		}
	}
	return n, err
}

// Query filters events. Zero-valued fields match everything.
type Query struct {
	Actor  string
	Record string
	Action Action
	// From/Until bound Timestamp inclusively; zero times are open ends.
	From, Until time.Time
	// DeniedOnly restricts to Outcome == OutcomeDenied.
	DeniedOnly bool
}

func (q Query) matches(e Event) bool {
	return (q.Actor == "" || e.Actor == q.Actor) &&
		(q.Record == "" || e.Record == q.Record) &&
		(q.Action == "" || e.Action == q.Action) &&
		(q.From.IsZero() || !e.Timestamp.Before(q.From)) &&
		(q.Until.IsZero() || !e.Timestamp.After(q.Until)) &&
		(!q.DeniedOnly || e.Outcome == OutcomeDenied)
}

// Search returns events matching q in chain order, as of the call. It reads
// the medium outside the log lock: only the events on the posting list of
// fewest bytes q selects, or — when q names no record, actor or outcome — a
// stream of the whole chain. Every event returned has been checked (its seq, and its
// MAC over its link); a read, decode or check failure fails the query
// rather than shortening its answer. An event read from a posting list is
// checked from its own bytes and the link the log keeps resident, and comes
// back without its chain hashes (PrevHash and Hash zero): the rest of
// PrevHash takes every earlier event. An event from the stream, which
// reads every earlier event, has both.
func (l *Log) Search(q Query) ([]Event, error) {
	l.mu.RLock()
	pl, shown := l.places, l.shown
	var shortest posting
	indexed := false
	narrow := func(list posting) {
		if !indexed || len(list.gaps) < len(shortest.gaps) {
			shortest, indexed = list, true
		}
	}
	if q.Record != "" {
		narrow(l.listOf(l.byRecord, symRecord, q.Record))
	}
	if q.Actor != "" {
		narrow(l.listOf(l.byActor, symActor, q.Actor))
	}
	if q.DeniedOnly {
		narrow(l.denied)
	}
	l.mu.RUnlock()

	var out []Event
	if !indexed {
		err := l.scan(int(shown), pl, newSymbols(), func(_ blockstore.Ref, e Event) error {
			if q.matches(e) {
				out = append(out, e)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("audit: scanning log: %w", err)
		}
		return out, nil
	}
	err := shortest.each(func(seq uint64) error {
		if seq >= shown {
			return errStopScan // in flight, as is every seq after it
		}
		e, err := l.read(pl, seq)
		if err != nil {
			return fmt.Errorf("audit: reading event %d: %w", seq, err)
		}
		if q.matches(e) {
			out = append(out, e)
		}
		return nil
	})
	if err != nil && err != errStopScan {
		return nil, err
	}
	return out, nil
}

// read reads event seq, wherever pl says it lives, and checks it against its
// link (decodeEvent).
func (l *Log) read(pl places, seq uint64) (Event, error) {
	link := pl.slots[seq].link
	ref := pl.ref(seq)
	if ref.Segment != pendingSegment {
		data, err := l.store.Read(ref)
		if err != nil {
			return Event{}, err
		}
		e, _, err := decodeEvent(data, seq, l.syms, link[:], l.checkMAC)
		return e, err
	}
	host, data, err := l.tail.Read(int64(ref.Offset))
	if err != nil {
		return Event{}, err
	}
	e, _, err := parseTail(host, data, l.syms)
	if err != nil {
		return Event{}, err
	}
	return checkEvent(e, codecVersion, seq, link[:], l.checkMAC)
}

// eventHash hashes the event's place, content and PrevHash (not MAC). The
// domain string is versioned with the field set: v2 added Trace, so a v1
// chain cannot be passed off as v2 (or vice versa) by zero-filling the new
// field.
func eventHash(e Event) [32]byte {
	hash, _ := chainSums(e, codecVersion)
	return hash
}

// macInput is what a v7 event's tag and a v6 or v5 event's MAC cover (ver
// says which): its place, its content and its link, under a domain of the
// layout's own.
// Binding the place stops a genuine event being copied over another;
// binding the link makes the event name the one it followed, so a reader
// that reaches it after any other fails its MAC; the domain makes an event
// re-spelled in another layout fail it too — a v6 MAC's first bytes are not
// a v7 tag, nor a v7 tag padded out a v6 MAC.
func macInput(e Event, ver byte) []byte {
	b := appendContent(make([]byte, 0, contentCap(e)), macDomain(ver), e)
	return append(b, e.PrevHash[:linkLen]...)
}

// The domains of eventHash and of macInput for each layout that has one.
const (
	hashDomain    = "medvault/audit-event/v2\x00"
	macDomainV7   = "medvault/audit-event-mac/v7\x00"
	macDomainV6   = "medvault/audit-event-mac/v6\x00"
	macDomainV5   = "medvault/audit-event-mac/v5\x00"
	macDomainSize = len(macDomainV7)
)

func macDomain(ver byte) string {
	switch ver {
	case codecV5:
		return macDomainV5
	case codecV6:
		return macDomainV6
	}
	return macDomainV7
}

// chainSums returns eventHash(e) and macInput(e, ver), which a writer and a
// reader walking the chain both need, encoding e's content once: the buffer
// holds hashDomain right-aligned under the MAC domain's length, so after
// hashing it takes the MAC domain in its place and the link after the
// content.
func chainSums(e Event, ver byte) (hash [32]byte, mac []byte) {
	pad := macDomainSize - len(hashDomain)
	b := appendContent(make([]byte, pad, contentCap(e)), hashDomain, e)
	hash = vcrypto.Hash(append(b, e.PrevHash[:]...)[pad:])
	copy(b, macDomain(ver))
	return hash, append(b, e.PrevHash[:linkLen]...)
}

// contentCap is room for e's hash or MAC input: the longer domain, the
// content, and a predecessor's hash.
func contentCap(e Event) int {
	return macDomainSize + 136 + len(e.Actor) + len(e.Record) + len(e.Detail) + len(e.Trace)
}

// appendContent appends a hash or MAC input's start to b: domain, then the
// event's seq, time, strings and version.
func appendContent(b []byte, domain string, e Event) []byte {
	b = append(b, domain...)
	b = binary.BigEndian.AppendUint64(b, e.Seq)
	b = frame.AppendTime(b, e.Timestamp)
	// Length-prefix strings so field boundaries cannot be confused.
	for _, s := range [...]string{e.Actor, string(e.Action), e.Record, string(e.Outcome), e.Detail, e.Trace} {
		b = frame.AppendStr(b, s)
	}
	return binary.BigEndian.AppendUint64(b, e.Version)
}

// String renders an event as one log line.
func (e Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "#%d %s %s %s", e.Seq, e.Timestamp.Format(time.RFC3339), e.Actor, e.Action)
	if e.Record != "" {
		fmt.Fprintf(&sb, " %s", e.Record)
		if e.Version != 0 {
			fmt.Fprintf(&sb, "/v%d", e.Version)
		}
	}
	fmt.Fprintf(&sb, " [%s]", e.Outcome)
	if e.Detail != "" {
		fmt.Fprintf(&sb, " %s", e.Detail)
	}
	return sb.String()
}
