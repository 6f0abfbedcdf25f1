package audit

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"medvault/internal/frame"
	"medvault/internal/obs"
	"medvault/internal/recno"
	"medvault/internal/vcrypto"
)

// Persisted event layout, v8 (fixed ints big-endian):
//
//	u8 8 | varint Δtime | uvarint shape | [token action] | [token outcome] |
//	symbol actor | symbol record | uvarint recVersion | symbol detail |
//	trace | 16B tag
//
// (frame.AppendVarint, AppendSymbol, AppendToken). An event stores only what
// a reader cannot recompute: its Seq is its place in the chain, which every
// reader knows, and its Hash is eventHash of the rest. Its time is the
// nanoseconds since its predecessor's, whatever that event's layout (a folded
// one's is its host entry's version time), zig-zag encoded, so a clock step
// back stays short; the chain's first event counts from 0. A sum that
// overflows int64 is ErrCorrupt, and a writer refuses an event it could not
// store (Log.seal). shape is action<<3 | outcome<<1 | minted: action and
// outcome are their words' headers (frame.WordIndex), each word whose header
// is 0 following as a token, in that order; minted says the trace is a
// minted trace ID, 2*traceLen lowercase hex digits, stored as its traceLen
// bytes with no length, and any other trace is a token. The outcome has two
// bits, so its vocabulary holds at most three words.
//
// Actor, Record and Detail are symbols: a log writes a value out the first
// time it carries it in that field, numbering it in the field's table, and
// refers to it by number after. The tables are a function of the decoded
// event sequence — events of every layout define entries — so a reader
// rebuilds them from the chain's prefix (chainReader), and the running log
// keeps them resident (Log.syms).
//
// The link is the first linkLen bytes of the predecessor's Hash, and no event
// stores it: a reader walking the chain (chainReader) has just computed that
// hash and read that time, from the first event or from an anchor
// (Log.stream), which holds the whole hash and the time its event follows.
// The tag covers macInput — seq, the decoded fields and the link — so an
// event read after any other predecessor than the one its writer chained it
// to fails its tag; eventHash and the signed checkpoints are byte-for-byte
// the ones v2 to v7 wrote. The tag is HMAC-SHA-256 truncated to
// vcrypto.TagSize bytes (vcrypto.KeyedMAC.Tag), the one MAC shape the
// vault's new layouts store. v8 keeps v7's tag domain: it holds v7's fields
// in other bytes, and the tag covers the fields, not their bytes, so a v8
// event re-spelled in v7 is the same event under the same tag — the
// re-spelling changes nothing a reader decodes — and no chain hash or
// signed checkpoint moves between the two layouts.
//
// A tail event (Log.Attach) is an entry of the owner's log. A standalone
// one's payload is its v8 encoding. A folded one rides at the end of an
// entry of the owner's whose other fields give its actor, record, time,
// action, version and outcome, and adds only its fold:
//
//	symbol detail | token trace | 16B tag
//
// Its actor and record are in that entry in the clear, so they define their
// symbols where the event is the first to carry them, as a written-out
// value would. A checkpoint copies a folded event to the store as the v8
// event with those fields and the same tag (Log.Flush).
//
// Legacy layouts still decode, so a log begun by an older binary keeps
// verifying and continues in v8:
//   - v7 (u8 7 | i64 unixNano | symbol actor | word action | symbol record |
//     uvarint recVersion | word outcome | symbol detail | token trace |
//     16B tag) stores the whole time, and each word and the trace with a
//     header of its own. A standalone tail entry may be v7 too.
//   - v6 is v7 with the whole 32-byte HMAC-SHA-256 in place of the tag, and
//     its MAC input under a domain of its own.
//   - v5 is v6 with the link stored before the MAC, which a uvarint length
//     prefixes, and its MAC input under a domain of its own.
//   - v4 is v5 with a 32-byte prevHash in place of the link, and its MAC
//     covers the event's Hash, as do v3's and v2's.
//   - v3 is v4 with every symbol field a token (frame.AppendToken).
//   - v2 (u16 2 | u64 seq | i64 unixNano | str actor | str action |
//     str record | u64 recVersion | str outcome | str detail | str trace |
//     32B prevHash | 32B hash | str mac, str = u32 len || bytes) stored Seq
//     and Hash, which must equal the ones the reader computes.
const (
	codecVersion = 8
	codecV7      = 7
	codecV6      = 6
	codecV5      = 5
	codecV4      = 4
	codecV3      = 3
	codecV2      = 2
	linkLen      = 8
	traceLen     = 8           // a minted trace ID's bytes (obs): 16 hex digits
	macLenV6     = sha256.Size // a v6 event's MAC: the whole HMAC-SHA-256
)

// IsStandalone reports whether kind, an entry's first byte, opens a
// standalone tail event: its layout byte, v8 or a v7 an older binary wrote,
// which no entry kind of the owner's log may take.
func IsStandalone(kind byte) bool { return kind == codecVersion || kind == codecV7 }

// actionWords and outcomeWords are the vocabularies of the v3 and later
// layouts. They are part of the format: append only.
var (
	actionWords = []string{
		string(ActionCreate), string(ActionRead), string(ActionCorrect), string(ActionSearch),
		string(ActionDelete), string(ActionMigrateOut), string(ActionMigrateIn), string(ActionBackup),
		string(ActionRestore), string(ActionVerify), string(ActionBreakGlass), string(ActionPolicy),
	}
	outcomeWords = []string{string(OutcomeAllowed), string(OutcomeDenied), string(OutcomeError)}
)

// The symbol fields of the v4 and later layouts, indexing a symbols value.
const (
	symActor = iota
	symRecord
	symDetail
	numSyms
)

// symbols is a log's symbol tables: per field, a recno.Table of its distinct
// non-empty values, numbered in order of first appearance, the order a
// table numbers what it interns. A table is safe for concurrent use and only
// grows, so a query reads it outside the log lock.
type symbols [numSyms]*recno.Table

func newSymbols() *symbols { return &symbols{recno.New(), recno.New(), recno.New()} }

// numbers is what encodeEvent needs of the tables: the number of each of
// e's symbol values, -1 for one no event has carried.
func (t *symbols) numbers(e Event) (nums [numSyms]int) {
	for f, s := range symbolValues(e) {
		nums[f] = -1
		if n, ok := t[f].Find(s); ok {
			nums[f] = int(n)
		}
	}
	return nums
}

// define numbers each of e's non-empty symbol values that the tables lack,
// and returns every value's number (0 for an empty one).
func (t *symbols) define(e Event) (nums [numSyms]uint32) {
	for f, s := range symbolValues(e) {
		if s != "" {
			nums[f] = t[f].Intern(s)
		}
	}
	return nums
}

// symbolValues is e's value for each symbol field.
func symbolValues(e Event) [numSyms]string {
	return [numSyms]string{symActor: e.Actor, symRecord: e.Record, symDetail: e.Detail}
}

// encodeEvent writes e in the v8 layout, after an event stamped prev (Unix
// nanoseconds; 0 before the chain's first). nums[f] is the number of e's
// value in symbol table f, or -1 when the log's table does not hold it yet.
// e.MAC is a vcrypto.TagSize-byte tag, as Append's are.
func encodeEvent(e Event, nums [numSyms]int, prev int64) []byte {
	b := make([]byte, 0, 48+len(e.Trace)+vcrypto.TagSize)
	b = append(b, codecVersion)
	b = frame.AppendVarint(b, e.Timestamp.UnixNano()-prev)
	action, outcome := frame.WordIndex(string(e.Action), actionWords), frame.WordIndex(string(e.Outcome), outcomeWords)
	shape := action<<3 | outcome<<1
	if minted(e.Trace) {
		shape |= 1
	}
	b = frame.AppendUvarint(b, shape)
	if action == 0 {
		b = frame.AppendToken(b, string(e.Action))
	}
	if outcome == 0 {
		b = frame.AppendToken(b, string(e.Outcome))
	}
	b = frame.AppendSymbol(b, e.Actor, nums[symActor])
	b = frame.AppendSymbol(b, e.Record, nums[symRecord])
	b = frame.AppendUvarint(b, e.Version)
	b = frame.AppendSymbol(b, e.Detail, nums[symDetail])
	if shape&1 == 1 {
		b = frame.AppendPackedHex(b, e.Trace)
	} else {
		b = frame.AppendToken(b, e.Trace)
	}
	return append(b, e.MAC...)
}

// minted reports whether trace has a minted trace ID's shape, which v8
// stores as its traceLen bytes.
func minted(trace string) bool { return len(trace) == 2*traceLen && frame.IsPackedHex(trace) }

// timeAfter is the time delta nanoseconds after prev, and whether their sum
// is in int64's range: an event's time in the v8 layout.
func timeAfter(prev, delta int64) (time.Time, bool) {
	t := prev + delta
	return time.Unix(0, t).UTC(), (delta >= 0) == (t >= prev)
}

// appendFold appends e's fold: what a folded event's host entry does not
// hold. nums is as for encodeEvent.
func appendFold(b []byte, e Event, nums [numSyms]int) []byte {
	b = frame.AppendSymbol(b, e.Detail, nums[symDetail])
	b = frame.AppendToken(b, e.Trace)
	return append(b, e.MAC...)
}

// ReadFold reads one fold from r and returns its bytes in place. It checks
// only the fold's structure: whether a detail reference resolves, and the
// tag, only a reader holding the chain can tell (Log.Resume, and every read
// of the event).
func ReadFold(r *frame.Reader) []byte {
	at := r.Offset()
	readFold(r, nil, &Event{})
	return r.Since(at)
}

// readFold is the fold's one parser: it reads a fold's detail, trace and tag
// (in place) from r into e, and reports whether the detail is written out.
// A detail reference resolves through table; with table nil it is only read
// past.
func readFold(r *frame.Reader, table *recno.Table, e *Event) (defined bool) {
	if table != nil {
		e.Detail, defined = r.Symbol(table.IDs())
	} else if r.Uvarint() == 1 {
		// A value written out, whose rules Symbol states.
		if r.Token() == "" && r.Err() == nil {
			r.Fail("an empty symbol written out")
		}
	}
	e.Trace = r.Token()
	e.MAC = r.View(vcrypto.TagSize)
	return defined
}

// parseTail reads a tail entry's event into e without checking it against a
// chain: a standalone one's bytes (host nil), which must be v8 or v7, or a
// folded one's fold completing host. prev is the time of the event before
// it, which a v8 event's counts from. It is the one check of a standalone
// entry's layout: the owner's log hands its payload on unparsed. e's MAC
// aliases data.
func parseTail(e, host *Event, data []byte, syms *symbols, prev int64) (defined [numSyms]bool, err error) {
	if host == nil {
		defined, ver, err := parseEvent(e, data, syms, prev)
		if err == nil && !IsStandalone(ver) {
			err = fmt.Errorf("%w: a tail event in layout v%d", ErrCorrupt, ver)
		}
		return defined, err
	}
	*e = *host
	r := frame.NewReader(data)
	defined[symDetail] = readFold(r, syms[symDetail], e)
	if err := r.Done(); err != nil {
		return [numSyms]bool{}, fmt.Errorf("%w: fold: %v", ErrCorrupt, err)
	}
	return defined, nil
}

// macCheck reports whether mac is the audit key's MAC over msg for an event
// in layout ver: a v8 or v7 event's tag, a legacy event's whole HMAC
// (Log.checkMAC).
type macCheck func(ver byte, msg, mac []byte) bool

// checkEvent checks e, parsed from layout ver, as event c.seq, whose
// predecessor's Hash is c.prev, and fills in its Seq, PrevHash and Hash. The
// MAC is checked with c.check over what the layout MACs: macInput, link
// included, for v8, v7, v6 and v5, the Hash for the older layouts, whose
// bytes hold the whole PrevHash, which must be c.prev. So every event's own
// bytes and its predecessor give it: a forged event fails every read of it,
// and a genuine one spliced in after another predecessor fails at the
// successor, whose MAC names the predecessor it was written after. A v5
// event's stored link must also be c.prev's.
func (c *chainReader) checkEvent(e *Event, ver byte) error {
	obs.CountWork(obs.WorkAuditDecode)
	seq, prev := c.seq, c.prev
	if ver == codecV2 && e.Seq != seq {
		return fmt.Errorf("%w: sequence %d, want %d", ErrChainBroken, e.Seq, seq)
	}
	e.Seq = seq
	var msg []byte // what the MAC covers
	switch ver {
	case codecVersion, codecV7, codecV6, codecV5:
		if ver == codecV5 && !bytes.Equal(e.PrevHash[:linkLen], prev[:linkLen]) {
			return fmt.Errorf("%w: link mismatch at seq %d", ErrChainBroken, seq)
		}
		e.PrevHash = prev
		e.Hash, msg = chainSums(c.buf, e, ver)
		c.buf = msg
	default:
		hash := eventHash(*e)
		if ver == codecV2 && hash != e.Hash {
			return fmt.Errorf("%w: content hash mismatch at seq %d", ErrChainBroken, seq)
		}
		if e.PrevHash != prev {
			return fmt.Errorf("%w: prev-hash mismatch at seq %d", ErrChainBroken, seq)
		}
		e.Hash = hash
		msg = hash[:]
	}
	// The stored bytes carry no hash of their own, so an edit to an event's
	// content or place, or to the chain before it, surfaces here as a MAC
	// over bytes the key holder never wrote — which also means the chain no
	// longer commits to that event, and the error says both.
	if !c.check(ver, msg, e.MAC) {
		return fmt.Errorf("%w at seq %d (%w)", ErrBadMAC, seq, ErrChainBroken)
	}
	return nil
}

// parseEvent reads any layout into e without checking it against a chain,
// and reports which it was; prev is the time of the event before it, which a
// v8 event's counts from. A v2 event comes back with the Seq and Hash it
// stored; a later one with both zero, a v8, v7 or v6 one with PrevHash zero
// too, and a v5 one with its link in PrevHash's first linkLen bytes. A v8,
// v7 or v6 event's MAC aliases data.
func parseEvent(e *Event, data []byte, syms *symbols, prev int64) (defined [numSyms]bool, ver byte, err error) {
	*e = Event{}
	r := frame.NewReader(data)
	switch ver = r.U8(); ver {
	case codecVersion:
		delta := r.Varint()
		var inRange bool
		if e.Timestamp, inRange = timeAfter(prev, delta); !inRange {
			r.Fail("time %+d ns after %d ns overflows", delta, prev)
		}
		shape := r.Uvarint()
		e.Action = Action(r.WordOf(shape>>3, actionWords))
		e.Outcome = Outcome(r.WordOf(shape>>1&3, outcomeWords))
		e.Actor, defined[symActor] = r.Symbol(syms[symActor].IDs())
		e.Record, defined[symRecord] = r.Symbol(syms[symRecord].IDs())
		e.Version = r.Uvarint()
		e.Detail, defined[symDetail] = r.Symbol(syms[symDetail].IDs())
		if shape&1 == 1 {
			e.Trace = r.PackedHex(traceLen)
		} else if e.Trace = r.Token(); minted(e.Trace) {
			r.Fail("a minted trace ID written as a token")
		}
		e.MAC = r.View(vcrypto.TagSize)
	case codecV7, codecV6, codecV5, codecV4:
		e.Timestamp = r.Time()
		e.Actor, defined[symActor] = r.Symbol(syms[symActor].IDs())
		e.Action = Action(r.Word(actionWords))
		e.Record, defined[symRecord] = r.Symbol(syms[symRecord].IDs())
		e.Version = r.Uvarint()
		e.Outcome = Outcome(r.Word(outcomeWords))
		e.Detail, defined[symDetail] = r.Symbol(syms[symDetail].IDs())
		e.Trace = r.Token()
		switch ver {
		case codecV7:
			e.MAC = r.View(vcrypto.TagSize)
		case codecV6:
			e.MAC = r.View(macLenV6)
		case codecV5:
			r.Fixed(e.PrevHash[:linkLen])
			e.MAC = r.VarBytes()
		default:
			r.Fixed(e.PrevHash[:])
			e.MAC = r.VarBytes()
		}
	case codecV3:
		*e = Event{
			Timestamp: r.Time(), Actor: r.Token(), Action: Action(r.Word(actionWords)), Record: r.Token(),
			Version: r.Uvarint(), Outcome: Outcome(r.Word(outcomeWords)), Detail: r.Token(), Trace: r.Token(),
		}
		r.Fixed(e.PrevHash[:])
		e.MAC = r.VarBytes()
	case 0: // the high byte of a legacy u16 version
		if ver = r.U8(); ver != codecV2 && r.Err() == nil {
			return defined, ver, fmt.Errorf("%w: version %d", ErrCorrupt, ver)
		}
		*e = Event{
			Seq: r.U64(), Timestamp: r.Time(), Actor: r.Str(), Action: Action(r.Str()), Record: r.Str(),
			Version: r.U64(), Outcome: Outcome(r.Str()), Detail: r.Str(), Trace: r.Str(),
		}
		r.Fixed(e.PrevHash[:])
		r.Fixed(e.Hash[:])
		e.MAC = r.Bytes()
	default:
		return defined, ver, fmt.Errorf("%w: version %d", ErrCorrupt, ver)
	}
	if err := r.Done(); err != nil {
		return [numSyms]bool{}, ver, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return defined, ver, nil
}

// chainReader decodes a log's events in chain order from the first,
// rebuilding the symbol tables from the prefix it has read and holding the
// hash and the time of the last event it read, which it checks and parses
// the next against. It is the sequential decoder behind Open, Verify and
// every Search, and it refuses a v4 or later event not in its one encoding: a
// value its table already holds written out is ErrCorrupt, as is (in
// frame.Reader.Symbol) a reference to a number not yet defined. One that
// starts at an anchor (resolved) resolves symbols through the log's tables
// instead, which hold every value, so only a reader from the first event can
// tell a first occurrence. It decodes each event into one Event it reuses,
// and builds each MAC input in one buffer it reuses.
type chainReader struct {
	check    macCheck
	seq      uint64
	prev     [32]byte // Hash of event seq-1; zero before the first
	prevTime int64    // Unix nanoseconds of event seq-1; 0 before the first
	syms     *symbols // empty, or the log's: in Open, which index extends after next, or resolved
	resolved bool     // syms holds every value: define none, and refuse none written out
	ev       Event    // the event next returns
	buf      []byte   // the last MAC input
}

func newChainReader(check macCheck, syms *symbols) *chainReader {
	return &chainReader{check: check, syms: syms}
}

// next decodes and checks the next event — stored bytes, or a tail entry
// (parseTail) when host is set — and adds the values it carries to the
// tables. The event is c's, valid until the next call, and its MAC aliases
// data: a caller that keeps it keeps a copy (Event.owned).
func (c *chainReader) next(host *Event, data []byte) (*Event, error) {
	var defined [numSyms]bool
	var ver byte = codecVersion
	var err error
	if host == nil {
		defined, ver, err = parseEvent(&c.ev, data, c.syms, c.prevTime)
	} else {
		defined, err = parseTail(&c.ev, host, data, c.syms, c.prevTime)
	}
	if err == nil {
		err = c.accept(&c.ev, defined, ver)
	}
	if err != nil {
		return nil, err
	}
	return &c.ev, nil
}

// accept checks e, parsed from layout ver with defined its written-out
// symbol fields, as the next event, filling in its Seq, PrevHash and Hash,
// and adds the values it carries to the tables.
func (c *chainReader) accept(e *Event, defined [numSyms]bool, ver byte) error {
	if err := c.checkEvent(e, ver); err != nil {
		return err
	}
	if !c.resolved {
		for f, s := range symbolValues(*e) {
			if n, known := c.syms[f].Find(s); known && defined[f] {
				return fmt.Errorf("%w: seq %d writes out a value symbol %d already holds", ErrCorrupt, c.seq, n)
			}
		}
		c.syms.define(*e)
	}
	c.seq++
	c.prev, c.prevTime = e.Hash, e.Timestamp.UnixNano()
	return nil
}
