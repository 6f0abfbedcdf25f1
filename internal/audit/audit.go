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
// keeps, per event, a place, a uvarint gap of a byte or two, in the
// ascending-seq posting lists of the filters the API exposes (record, actor,
// denied); per anchorEvery events and per segment, an anchor: where one
// event lives and its predecessor's hash; and, per distinct symbol value,
// its entry in the field's recno.Table, whose number is the value's symbol
// number and indexes its posting list. A query snapshots the shortest list
// under the log lock, releases it, and streams forward from the anchor at or
// before each event that list names, checking every event it passes;
// verification streams the medium, rebuilding the tables from it, so what
// it vouches for is the bytes on disk, not a copy of them.
package audit

import (
	"bytes"
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
	// eventHash: this event's place and content || PrevHash. A v8 event
	// stores neither, so only Append and a reader walking the chain (Open,
	// Verify, an unfiltered Search) know them; an event Search reads from a
	// posting list has both zero.
	PrevHash [32]byte
	Hash     [32]byte
	// MAC is an HMAC under the audit key: a v8 or v7 event's
	// vcrypto.TagSize-byte tag over macInput (place, content and link), a v6
	// or v5 event's whole HMAC over macInput, an older layout's over Hash.
	// An event a reader decoded in place has its MAC in the medium's bytes.
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
	places   places    // where the log's events live
	syms     *symbols  // the log's own: it numbers values no shard registers
	byRecord []posting // by record symbol number
	byActor  []posting // by actor symbol number
	denied   posting   // events with Outcome == OutcomeDenied
	lastHash [32]byte
	lastTime int64 // Unix nanoseconds of event places.n-1; 0 before the first
	// tailSyms is each symbol table's size when the tail began: Flush's
	// count of the values tail events define.
	tailSyms [numSyms]int
	skip     uint64   // the seq Resume takes its next entry for; an overlap with the store when below places.n
	skipPrev [32]byte // the hash of event skip-1 while skip is in the overlap
	skipTime int64    // and its time
	resumed  bool     // Resume has placed the tail's first entry
	every    int      // checkpoint interval in events (0 = manual only)
	cps      []Checkpoint
	wedged   bool // an append or Flush failed since Open (see ErrWedged)
}

// pendingSegment is the Ref segment of a tail event: its offset is the place
// of its entry in the owner's log (the convention of the vault's walSegment).
const pendingSegment = math.MaxUint32

// anchorEvery is how many events apart the log keeps an anchor at most: a
// posting-list read streams forward from the anchor at or before its event,
// so it decodes at most anchorEvery-1 events it does not answer.
const anchorEvery = 32

// anchor is where a forward stream starts: event seq lives at ref (a tail
// event's ref holds its entry's full-width offset in the owner's log) and
// follows the event whose Hash is prev, stamped prevTime (Unix nanoseconds),
// which a v8 event's time counts from.
type anchor struct {
	seq      uint64
	ref      blockstore.Ref
	prev     [32]byte
	prevTime int64
}

// places is where a log's events live, held as anchors: every
// anchorEvery-th event has one, and so do the first event of each segment
// and the tail's first, which keeps it when Flush copies it to the store, so
// a stream from an anchor never crosses a segment or the store/tail seam.
// Appends only extend anchors, so a copy taken under the log lock stays
// valid outside it; Flush, which runs with no reader in flight, replaces the
// tail's in place.
type places struct {
	anchors []anchor
	n       uint64 // events placed
	stored  uint64 // events in the store; the tail's follow them
	seg     uint32 // event n-1's segment
}

// add records that event p.n lives at ref and follows the event whose Hash
// is prev, stamped prevTime. A tail event (pendingSegment) follows every
// stored one.
func (p *places) add(ref blockstore.Ref, prev [32]byte, prevTime int64) {
	if p.n%anchorEvery == 0 || ref.Segment != p.seg {
		if len(p.anchors) == cap(p.anchors) {
			// Grow by an eighth: append grows a long slice by a quarter
			// and more, which after its last step can hold half again the
			// live anchors; copying each anchor about eight times costs
			// some 16 B per 32 events.
			grown := make([]anchor, len(p.anchors), len(p.anchors)+len(p.anchors)/8+16)
			p.anchors = grown[:copy(grown, p.anchors)]
		}
		p.anchors = append(p.anchors, anchor{p.n, ref, prev, prevTime})
	}
	if ref.Segment != pendingSegment {
		p.stored++
	}
	p.n, p.seg = p.n+1, ref.Segment
}

// at is the index of the last anchor at or before seq.
func (p places) at(seq uint64) int {
	return sort.Search(len(p.anchors), func(i int) bool { return p.anchors[i].seq > seq }) - 1
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
	if err := l.scan(-1, places{}, l.syms, l.place); err != nil {
		return nil, fmt.Errorf("audit: replaying persisted log: %w", err)
	}
	return l, nil
}

// place records where e lives (ref), what it follows and which posting lists
// name it, and numbers the symbol values it is the first to
// carry. The caller holds l.mu exclusively (or, in Open, is the only holder
// of l), and e is on the medium: a failed append defines nothing, and a
// reader may read e from now on.
func (l *Log) place(ref blockstore.Ref, e *Event) {
	l.places.add(ref, e.PrevHash, l.lastTime)
	l.lastHash, l.lastTime = e.Hash, e.Timestamp.UnixNano()
	nums := l.syms.define(*e)
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
// MACs, and hands each to fn, valid only during the call: the store's, and
// then, up to n, the tail's in pl. A medium that holds fewer than n — the
// count the caller saw in the running log — is a broken chain.
func (l *Log) scan(n int, pl places, syms *symbols, fn func(blockstore.Ref, *Event)) error {
	cr := newChainReader(l.checkMAC, syms)
	err := l.store.Scan(func(ref blockstore.Ref, data []byte) error {
		if int(cr.seq) == n {
			return errStopScan
		}
		e, err := cr.next(nil, data)
		if err == nil {
			fn(ref, e)
		}
		return err
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return err
	}
	if err == nil && int(cr.seq) < n && cr.seq == pl.stored {
		err = l.scanTail(pl, n, func(off int64, host *Event, data []byte) error {
			e, err := cr.next(host, data)
			if err == nil {
				fn(blockstore.Ref{Segment: pendingSegment, Offset: uint64(off)}, e)
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
// (Tail.Scan) and hands fn each with its offset there, which must be the one
// pl's anchor holds for each event that has one.
func (l *Log) scanTail(pl places, n int, fn func(off int64, host *Event, data []byte) error) error {
	seq, i := pl.stored, pl.at(pl.stored)
	err := l.tail.Scan(int64(pl.anchors[i].ref.Offset), func(off int64, host *Event, data []byte) error {
		if int(seq) == n {
			return errStopScan
		}
		if i < len(pl.anchors) && pl.anchors[i].seq == seq {
			if want := pl.anchors[i].ref.Offset; off != int64(want) {
				return fmt.Errorf("%w: event %d is at %d in the tail, not %d", ErrChainBroken, seq, off, want)
			}
			i++
		}
		seq++
		return fn(off, host, data)
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return fmt.Errorf("%w: reading the tail: %w", ErrChainBroken, err)
	}
	return nil
}

// stream reads anchor i's stretch, from its event to event end-1 or to the
// next anchor's, through a chainReader that starts at the anchor and
// resolves symbols through the log's tables, and hands fn each event with
// its chain hashes, valid only during the call, until fn fails: in the
// store from one read of the stretch (Store.ScanSpan), in the tail by
// Tail.Scan from the anchor's entry. A medium that holds fewer is a broken
// chain.
func (l *Log) stream(pl places, i int, end uint64, fn func(*Event) error) error {
	a := pl.anchors[i]
	if i+1 < len(pl.anchors) {
		end = min(end, pl.anchors[i+1].seq)
	}
	cr := chainReader{check: l.checkMAC, seq: a.seq, prev: a.prev, prevTime: a.prevTime, syms: l.syms, resolved: true}
	each := func(host *Event, data []byte) error {
		if cr.seq == end {
			return errStopScan
		}
		e, err := cr.next(host, data)
		if err == nil {
			err = fn(e)
		}
		return err
	}
	var err error
	if a.ref.Segment == pendingSegment {
		err = l.tail.Scan(int64(a.ref.Offset), func(_ int64, host *Event, data []byte) error { return each(host, data) })
	} else {
		to := uint64(math.MaxUint64)
		if i+1 < len(pl.anchors) && pl.anchors[i+1].ref.Segment == a.ref.Segment {
			to = pl.anchors[i+1].ref.Offset
		}
		err = l.store.ScanSpan(a.ref, to, func(_ blockstore.Ref, data []byte) error { return each(nil, data) })
	}
	switch {
	case errors.Is(err, errStopScan):
		return nil
	case err == nil && cr.seq < end:
		return fmt.Errorf("%w: medium holds event %d before %d", ErrChainBroken, cr.seq, end)
	}
	return err
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
	defer l.mu.Unlock()
	var last Event
	for _, e := range events {
		var err error
		if last, err = l.appendLocked(e, nil); err != nil {
			return Event{}, err
		}
	}
	return last, nil
}

// appendLocked seals e as the chain's next event and writes it: to the
// store, or, with a tail, as an entry of its own there stamped now (fold
// nil), or, stamped with its own time, as the fold that fold writes in its
// host entry. Only then does it place e, so chain order is the medium's
// order and readers read only written events. An error places nothing. The
// caller holds l.mu exclusively.
func (l *Log) appendLocked(e Event, fold func(fold []byte) (int64, error)) (Event, error) {
	if err := l.refuse(); err != nil {
		return Event{}, err
	}
	start := time.Now()
	defer metAppendSeconds.ObserveSince(start)
	if fold == nil {
		e.Timestamp = l.now()
	}
	nums, err := l.seal(&e)
	if err != nil {
		return Event{}, err
	}
	var ref blockstore.Ref
	if l.tail == nil {
		if ref, err = l.store.Append(encodeEvent(e, nums, l.lastTime)); err != nil {
			l.wedged = true
			return Event{}, fmt.Errorf("audit: persisting event %d: %w", e.Seq, err)
		}
	} else {
		var off int64
		if fold != nil {
			off, err = fold(appendFold(make([]byte, 0, 8+len(e.Trace)+len(e.MAC)), e, nums))
		} else {
			off, err = l.tail.Enqueue(encodeEvent(e, nums, l.lastTime))
		}
		if err != nil {
			return Event{}, err
		}
		ref = blockstore.Ref{Segment: pendingSegment, Offset: uint64(off)}
	}
	l.place(ref, &e)
	eventsCounter(e.Outcome).Inc()
	if l.every > 0 && l.places.n%uint64(l.every) == 0 {
		l.cps = append(l.cps, l.checkpointLocked())
	}
	return e, nil
}

// Tail is the owner's log a Log keeps its events in between the owner's
// checkpoints (Attach). Each event is an entry there: a standalone one's
// payload is its v8 encoding, whose layout byte tells the owner's entry
// kinds apart (IsStandalone), and a folded one rides in an entry of the
// owner's own whose fields give the event's actor, record, time and action
// (AppendFolded).
type Tail struct {
	// Enqueue writes a standalone event's entry, and returns its offset in
	// the owner's log; an error means it wrote nothing.
	Enqueue func(entry []byte) (off int64, err error)
	// Scan calls fn, in order, with every written entry that holds an
	// event from the one at off on, until fn fails: a standalone event's
	// bytes with host nil, or a folded event's host fields (Actor, Action,
	// Record, Version, Outcome, Timestamp) and its fold. data is valid only
	// during the call.
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
	l.skip = l.places.n
	l.resumed = false
}

// seal makes e, stamped with its Timestamp, the chain's next event: its
// seq, link, hash and tag. It returns the numbers encodeEvent needs, or,
// changing nothing, an error for a time too far from its predecessor's for
// the v8 layout to store (292 years). The caller holds l.mu exclusively.
func (l *Log) seal(e *Event) ([numSyms]int, error) {
	e.Seq = l.places.n
	e.Timestamp = e.Timestamp.UTC()
	if _, ok := timeAfter(l.lastTime, e.Timestamp.UnixNano()-l.lastTime); !ok {
		return [numSyms]int{}, fmt.Errorf("audit: event %d at %v is too far from its predecessor's time to store", e.Seq, e.Timestamp)
	}
	e.PrevHash = l.lastHash
	var msg []byte
	e.Hash, msg = chainSums(nil, e, codecVersion)
	e.MAC = l.mac.Tag(nil, msg)
	return l.syms.numbers(*e), nil
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
// next event inside the entry put writes to the tail: put gets the event's
// fold — its detail, trace and tag (codec.go) — to end its entry with, and
// returns the entry's offset, or an error if it wrote nothing. The entry's
// other fields must give e's Actor, Record, Action, Version, Outcome and
// Timestamp back (Tail.Scan). A log without a tail refuses, as does a
// wedged one, without calling put.
func (l *Log) AppendFolded(e Event, put func(fold []byte) (off int64, err error)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tail == nil {
		return errNoTail
	}
	_, err := l.appendLocked(e, put)
	return err
}

// Resume takes the next entry of the tail as the owner replays its log: the
// entry at off holds a standalone event (host nil, data its v8 or v7 bytes)
// or a folded one (host its fields, data its fold). It checks the event's
// tag against the chain it continues, and numbers and indexes it as an append
// would. A checkpoint cut between copying the tail to the store and cutting
// the owner's log leaves the tail's first events in the store too: replay
// finds the first entry's seq among the store's events by its tag
// (findRepeat), checks each entry the store already holds as the chain from
// there, and requires that chain to end in the store's head.
func (l *Log) Resume(off int64, host *Event, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.places.n
	if !l.resumed {
		l.resumed = true
		if err := l.findRepeat(host, data); err != nil {
			return err
		}
	}
	cr := chainReader{check: l.checkMAC, seq: n, prev: l.lastHash, prevTime: l.lastTime, syms: l.syms}
	if l.skip < n {
		cr = chainReader{check: l.checkMAC, seq: l.skip, prev: l.skipPrev, prevTime: l.skipTime, syms: l.syms, resolved: true}
	}
	var e Event
	defined, err := parseTail(&e, host, data, l.syms, cr.prevTime)
	if err == nil {
		err = cr.accept(&e, defined, codecVersion)
	}
	switch {
	case err != nil && l.skip < n:
		return fmt.Errorf("%w: the tail's copy in the store differs", err)
	case err != nil:
		return err
	case l.skip < n:
		if l.skip, l.skipPrev, l.skipTime = cr.seq, cr.prev, cr.prevTime; l.skip == n && e.Hash != l.lastHash {
			return fmt.Errorf("%w: the tail's copy ends in another event than the store", ErrChainBroken)
		}
		return nil
	}
	l.skip++
	l.place(blockstore.Ref{Segment: pendingSegment, Offset: uint64(off)}, &e)
	return nil
}

// findRepeat takes the tail's first entry: when it does not continue the
// chain, it is a stored event's copy, the one its tag checks as, found by
// streaming the store newest stretch first, and the overlap starts there.
// Each candidate reads the entry after its own predecessor, whose time a v8
// event's counts from. The caller holds l.mu.
func (l *Log) findRepeat(host *Event, data []byte) error {
	repeats := func(seq uint64, prev [32]byte, prevTime int64) bool {
		var e Event
		_, err := parseTail(&e, host, data, l.syms, prevTime)
		return err == nil && l.tagged(e, seq, prev[:linkLen])
	}
	n := l.places.n
	if repeats(n, l.lastHash, l.lastTime) {
		return nil
	}
	for i := len(l.places.anchors) - 1; i >= 0 && l.skip == n; i-- {
		prevTime := l.places.anchors[i].prevTime
		err := l.stream(l.places, i, n, func(s *Event) error {
			if repeats(s.Seq, s.PrevHash, prevTime) {
				l.skip, l.skipPrev, l.skipTime = s.Seq, s.PrevHash, prevTime
				return errStopScan
			}
			prevTime = s.Timestamp.UnixNano()
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// tagged reports whether e's tag checks as event seq's after the event whose
// hash begins with link.
func (l *Log) tagged(e Event, seq uint64, link []byte) bool {
	e.Seq = seq
	copy(e.PrevHash[:], link)
	return l.checkMAC(codecVersion, macInput(e, codecVersion), e.MAC)
}

// Flush copies the tail to the store, oldest event first — a standalone
// event's bytes as they are, a folded one encoded as a standalone v8 event
// with its own tag — syncs the store, and only then points the events'
// places there: the owner calls it before it cuts its log, with no append or
// read in flight, since a read that placed an event in the tail before the
// cut would look for it in the owner's next log; so the tail's anchors are
// replaced in place, in O(tail). A failure wedges the log, since the store
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
	if pl.stored == pl.n {
		return nil
	}
	// The copies' places, anchored as appends to the store would be, the
	// first keeping its anchor: each copy follows the hash of the one before.
	i := pl.at(pl.stored)
	copies := places{n: pl.stored, stored: pl.stored, seg: pendingSegment}
	prev, prevTime := pl.anchors[i].prev, pl.anchors[i].prevTime
	count := l.tailSyms
	err := l.scanTail(*pl, int(pl.n), func(_ int64, host *Event, data []byte) error {
		e, enc, err := l.copyable(host, data, &count, prevTime)
		var ref blockstore.Ref
		if err == nil {
			ref, err = l.store.Append(enc)
		}
		if err == nil {
			copies.add(ref, prev, prevTime)
			e.Seq, e.PrevHash = copies.n-1, prev
			prev, prevTime = eventHash(e), e.Timestamp.UnixNano()
		}
		return err
	})
	if err != nil || copies.n != pl.n {
		l.wedged = true
		return fmt.Errorf("audit: copying event %d to the store: %w", copies.n, err)
	}
	if err := l.store.Sync(); err != nil {
		l.wedged = true
		return fmt.Errorf("audit: syncing the tail's copy: %w", err)
	}
	copies.anchors = append(pl.anchors[:i], copies.anchors...)
	*pl = copies
	l.markTail()
	return nil
}

// copyable returns a tail event, read as Tail.Scan hands it on after an
// event stamped prev, and its encoding as the store holds it: a standalone
// one's own bytes, a folded one's v8 encoding. count is each symbol table's
// size as of the event, which its values advance. It checks nothing: the
// copy carries the event's own tag, which every reader of the store checks.
// The caller holds l.mu.
func (l *Log) copyable(host *Event, data []byte, count *[numSyms]int, prev int64) (Event, []byte, error) {
	var e Event
	if _, err := parseTail(&e, host, data, l.syms, prev); err != nil {
		return Event{}, nil, err
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
		return e, data, nil // the store's Append copies it
	}
	return e, encodeEvent(e, nums, prev), nil
}

// checkMAC is the log's macCheck. A v8 or v7 event's tag is checked through
// VerifyTag, which refuses any other length; an event in a layout no binary
// writes any more carries a whole HMAC-SHA-256, which only this decoding arm
// checks.
func (l *Log) checkMAC(ver byte, msg, mac []byte) bool {
	if ver == codecVersion || ver == codecV7 {
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
	return int(l.places.n)
}

// Checkpoint signs and returns a commitment to the current chain state.
func (l *Log) Checkpoint() Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	cp := l.checkpointLocked()
	l.cps = append(l.cps, cp)
	return cp
}

// checkpointLocked signs the events a reader reads.
func (l *Log) checkpointLocked() Checkpoint {
	ts := l.now().UTC()
	return Checkpoint{
		Seq:       l.places.n,
		Head:      l.lastHash,
		Timestamp: ts,
		Signature: l.signer.Sign(checkpointBytes(l.places.n, l.lastHash, ts)),
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
	want, head, pl := int(l.places.n), l.lastHash, l.places
	l.mu.RUnlock()
	var last [32]byte
	err = l.scan(want, pl, newSymbols(), func(_ blockstore.Ref, e *Event) {
		n++
		last = e.Hash
		if _, ok := hashes[e.Seq+1]; ok {
			hashes[e.Seq+1] = e.Hash
		}
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

func (q Query) matches(e *Event) bool {
	return (q.Actor == "" || e.Actor == q.Actor) &&
		(q.Record == "" || e.Record == q.Record) &&
		(q.Action == "" || e.Action == q.Action) &&
		(q.From.IsZero() || !e.Timestamp.Before(q.From)) &&
		(q.Until.IsZero() || !e.Timestamp.After(q.Until)) &&
		(!q.DeniedOnly || e.Outcome == OutcomeDenied)
}

// Search returns events matching q in chain order, as of the call. It reads
// the medium outside the log lock: the events on the posting list of fewest
// bytes q selects, each by a stream from the anchor at or before it, which
// consecutive events of one anchor's stretch share, or — when q names no
// record, actor or outcome — a stream of the whole chain. Every event a
// stream passes is checked (its seq, its link and its MAC), so a read,
// decode or check failure on the way fails the query rather than shortening
// its answer. An event read from a posting list comes back without its
// chain hashes (PrevHash and Hash zero), as the query's answer does not
// depend on where its stream started; one from the whole chain has both.
func (l *Log) Search(q Query) ([]Event, error) {
	l.mu.RLock()
	pl := l.places
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
		err := l.scan(int(pl.n), pl, newSymbols(), func(_ blockstore.Ref, e *Event) {
			if q.matches(e) {
				out = append(out, e.owned())
			}
		})
		if err != nil {
			return nil, fmt.Errorf("audit: scanning log: %w", err)
		}
		return out, nil
	}
	var hits []uint64
	shortest.each(func(seq uint64) error {
		hits = append(hits, seq)
		return nil
	})
	for k := 0; k < len(hits); {
		i, last := pl.at(hits[k]), k // last: the last hit in anchor i's stretch
		for last+1 < len(hits) && pl.at(hits[last+1]) == i {
			last++
		}
		err := l.stream(pl, i, hits[last]+1, func(e *Event) error {
			if e.Seq == hits[k] {
				if k++; q.matches(e) {
					hit := e.owned()
					hit.PrevHash, hit.Hash = [32]byte{}, [32]byte{}
					out = append(out, hit)
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("audit: reading events %d to %d: %w", pl.anchors[i].seq, hits[last], err)
		}
	}
	return out, nil
}

// eventHash hashes the event's place, content and PrevHash (not MAC). The
// domain string is versioned with the field set: v2 added Trace, so a v1
// chain cannot be passed off as v2 (or vice versa) by zero-filling the new
// field.
func eventHash(e Event) [32]byte {
	hash, _ := chainSums(nil, &e, codecVersion)
	return hash
}

// macInput is what a v8 or v7 event's tag and a v6 or v5 event's MAC cover
// (ver says which): its place, its content and its link, under a domain of
// the layout's own.
// Binding the place stops a genuine event being copied over another;
// binding the link makes the event name the one it followed, so a reader
// that reaches it after any other fails its MAC; the domain makes an event
// re-spelled in another layout fail it too — a v6 MAC's first bytes are not
// a v7 tag, nor a v7 tag padded out a v6 MAC. v8 keeps v7's domain (codec.go).
func macInput(e Event, ver byte) []byte {
	b := appendContent(make([]byte, 0, contentCap(&e)), macDomain(ver), &e)
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
// reader walking the chain both need, encoding e's content once, in buf's
// room when it has enough: the buffer holds hashDomain right-aligned under
// the MAC domain's length, so after hashing it takes the MAC domain in its
// place and the link after the content.
func chainSums(buf []byte, e *Event, ver byte) (hash [32]byte, mac []byte) {
	pad := macDomainSize - len(hashDomain)
	b := buf[:0]
	if n := contentCap(e); cap(b) < n {
		b = make([]byte, 0, n)
	}
	b = appendContent(b[:pad], hashDomain, e)
	hash = vcrypto.Hash(append(b, e.PrevHash[:]...)[pad:])
	copy(b, macDomain(ver))
	return hash, append(b, e.PrevHash[:linkLen]...)
}

// contentCap is room for e's hash or MAC input: the longer domain, the
// content, and a predecessor's hash.
func contentCap(e *Event) int {
	return macDomainSize + 136 + len(e.Actor) + len(e.Record) + len(e.Detail) + len(e.Trace)
}

// appendContent appends a hash or MAC input's start to b: domain, then the
// event's seq, time, strings and version.
func appendContent(b []byte, domain string, e *Event) []byte {
	b = append(b, domain...)
	b = binary.BigEndian.AppendUint64(b, e.Seq)
	b = frame.AppendTime(b, e.Timestamp)
	// Length-prefix strings so field boundaries cannot be confused.
	for _, s := range [...]string{e.Actor, string(e.Action), e.Record, string(e.Outcome), e.Detail, e.Trace} {
		b = frame.AppendStr(b, s)
	}
	return binary.BigEndian.AppendUint64(b, e.Version)
}

// owned is e with a MAC of its own, for a caller that keeps an event a
// reader decoded in place.
func (e *Event) owned() Event {
	c := *e
	c.MAC = bytes.Clone(e.MAC)
	return c
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
