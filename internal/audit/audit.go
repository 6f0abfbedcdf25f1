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
// Events live only in the append-only blockstore, and store only what a reader
// cannot recompute (codec.go): an actor, record ID or detail the log already
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

// Verify checks the checkpoint signature.
func (c Checkpoint) Verify(pub vcrypto.PublicKey) error {
	if err := pub.Verify(checkpointBytes(c.Seq, c.Head, c.Timestamp), c.Signature); err != nil {
		return fmt.Errorf("audit: checkpoint signature: %w", err)
	}
	return nil
}

// Log is a tamper-evident audit log. Safe for concurrent use.
type Log struct {
	mu       sync.RWMutex
	store    blockstore.Store
	mac      *vcrypto.KeyedMAC
	signer   *vcrypto.Signer
	now      func() time.Time
	places   places    // where each event lives, and its link
	syms     *symbols  // the log's own: it numbers values no shard registers
	byRecord []posting // by record symbol number
	byActor  []posting // by actor symbol number
	denied   posting   // events with Outcome == OutcomeDenied
	lastHash [32]byte
	every    int // checkpoint interval in events (0 = manual only)
	cps      []Checkpoint
	wedged   bool // an append failed since Open (see ErrWedged)
}

// places is where a log's events live and what each links to: the only
// per-event state besides the posting lists. Appends only extend its
// slices, so a copy taken under the log lock stays valid outside it.
type places struct {
	slots []slot   // slots[seq] is event seq's
	first []uint64 // first[s] is the seq of segment s's first event, or of the next event when s holds none
}

// slot is one event's place in its segment and its link, the first linkLen
// bytes of its predecessor's Hash, which a posting-list read hands
// decodeEvent: 12 B where a blockstore.Ref alone took 16.
type slot struct {
	offset uint32
	link   [linkLen]byte
}

// add records that event len(p.slots) lives at ref and links to prev.
func (p *places) add(ref blockstore.Ref, prev [32]byte) error {
	if ref.Offset > math.MaxUint32 {
		return fmt.Errorf("audit: event %d is %d B into its segment, past the 4 GiB an offset holds", len(p.slots), ref.Offset)
	}
	for uint64(len(p.first)) <= uint64(ref.Segment) {
		p.first = append(p.first, uint64(len(p.slots)))
	}
	s := slot{offset: uint32(ref.Offset)}
	copy(s.link[:], prev[:])
	p.slots = append(p.slots, s)
	return nil
}

// ref is where event seq lives: in the last segment whose first event is at
// or before it.
func (p places) ref(seq uint64) blockstore.Ref {
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
	err := l.scan(-1, l.syms, l.index)
	if err != nil {
		return nil, fmt.Errorf("audit: replaying persisted log: %w", err)
	}
	return l, nil
}

// index records where e lives, what it links to and which posting lists
// name it, and numbers the symbol values it is the first to carry. The
// caller holds l.mu exclusively (or, in Open, is the only holder of l), and
// e is on the medium: a failed append defines nothing.
func (l *Log) index(ref blockstore.Ref, e Event) error {
	if err := l.places.add(ref, e.PrevHash); err != nil {
		return err
	}
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
	return nil
}

var errStopScan = errors.New("audit: stop scan")

// scan streams the medium's first n events (all of them when n < 0) through
// a chainReader numbering symbols in syms, which checks their links and
// MACs, and hands each to fn. A medium that holds fewer than n — the count
// the caller saw in the running log — is a broken chain.
func (l *Log) scan(n int, syms *symbols, fn func(blockstore.Ref, Event) error) error {
	cr := newChainReader(l.checkMAC, syms)
	err := l.store.Scan(func(ref blockstore.Ref, data []byte) error {
		if int(cr.seq) == n {
			return errStopScan
		}
		e, err := cr.next(data)
		if err != nil {
			return err
		}
		return fn(ref, e)
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return err
	}
	if int(cr.seq) < n {
		return fmt.Errorf("%w: medium holds %d events, log has %d", ErrChainBroken, cr.seq, n)
	}
	return nil
}

// Append records an event and returns it with chain fields filled in.
// Timestamp, Seq, PrevHash, Hash, and MAC are assigned by the log; caller
// fields in those positions are ignored.
func (l *Log) Append(e Event) (Event, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(e)
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
	e.Seq = uint64(len(l.places.slots))
	e.Timestamp = l.now().UTC()
	e.PrevHash = l.lastHash
	var msg []byte
	e.Hash, msg = chainSums(e, codecVersion)
	e.MAC = l.mac.Tag(nil, msg)
	ref, err := l.store.Append(encodeEvent(e, l.syms.numbers(e)))
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

// Wedged reports whether an append failed since Open.
func (l *Log) Wedged() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.wedged
}

// Len returns the number of events.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.places.slots)
}

// Checkpoint signs and returns a commitment to the current chain state.
func (l *Log) Checkpoint() Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	cp := l.checkpointLocked()
	l.cps = append(l.cps, cp)
	return cp
}

func (l *Log) checkpointLocked() Checkpoint {
	ts := l.now().UTC()
	seq := uint64(len(l.places.slots))
	return Checkpoint{
		Seq:       seq,
		Head:      l.lastHash,
		Timestamp: ts,
		Signature: l.signer.Sign(checkpointBytes(seq, l.lastHash, ts)),
	}
}

// Checkpoints returns all checkpoints issued so far.
func (l *Log) Checkpoints() []Checkpoint {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]Checkpoint(nil), l.cps...)
}

// Verify walks the whole chain as the medium holds it: hash links, content
// hashes, and MACs. It returns the number of verified events.
func (l *Log) Verify() (int, error) {
	n, _, err := l.verify(0)
	return n, err
}

// verify streams the medium through scan up to the events the running
// log had indexed when it was called, and checks that they end in the log's
// own head. It returns how many verified and the hash of event at-1.
func (l *Log) verify(at uint64) (n int, hashAt [32]byte, err error) {
	l.mu.RLock()
	want, head := len(l.places.slots), l.lastHash
	l.mu.RUnlock()
	var last [32]byte
	err = l.scan(want, newSymbols(), func(_ blockstore.Ref, e Event) error {
		n++
		last = e.Hash
		if e.Seq+1 == at {
			hashAt = e.Hash
		}
		return nil
	})
	if err == nil && last != head {
		err = fmt.Errorf("%w: medium ends in a different event than the running log", ErrChainBroken)
	}
	return n, hashAt, err
}

// VerifyAgainst verifies the chain and additionally checks it commits to the
// remembered checkpoint: the event at cp.Seq-1 must hash to cp.Head. This is
// the defence against wholesale log replacement with a freshly built chain.
func (l *Log) VerifyAgainst(cp Checkpoint, pub vcrypto.PublicKey) error {
	if err := cp.Verify(pub); err != nil {
		return err
	}
	n, hashAt, err := l.verify(cp.Seq)
	if err != nil {
		return err
	}
	if cp.Seq > uint64(n) {
		return fmt.Errorf("%w: checkpoint covers %d events, log has %d", ErrCheckpointMismatch, cp.Seq, n)
	}
	if cp.Seq != 0 && hashAt != cp.Head {
		return fmt.Errorf("%w: head hash differs at seq %d", ErrCheckpointMismatch, cp.Seq-1)
	}
	return nil
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
		err := l.scan(len(pl.slots), newSymbols(), func(_ blockstore.Ref, e Event) error {
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
		data, err := l.store.Read(pl.ref(seq))
		var e Event
		if err == nil {
			link := pl.slots[seq].link
			e, _, err = decodeEvent(data, seq, l.syms, link[:], l.checkMAC)
		}
		if err != nil {
			return fmt.Errorf("audit: reading event %d: %w", seq, err)
		}
		if q.matches(e) {
			out = append(out, e)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
