package audit

import (
	"fmt"

	"medvault/internal/frame"
	"medvault/internal/obs"
)

// Persisted event layout, v4 (fixed ints big-endian):
//
//	u8 4 | i64 unixNano | symbol actor | word action | symbol record |
//	uvarint recVersion | word outcome | symbol detail | token trace |
//	32B prevHash | varbytes mac
//
// (frame.AppendSymbol, AppendWord, AppendToken, AppendVarBytes). An event
// stores only what a reader cannot recompute: its Seq is its place in the
// chain, which every reader knows, and its Hash is eventHash of the rest.
// Actor, Record and Detail are symbols: a log writes a value out the first
// time it carries it in that field, numbering it in the field's table, and
// refers to it by number after. The tables are a function of the decoded
// event sequence — events of every layout define entries — so a reader
// rebuilds them from the chain's prefix (chainReader), and the running log
// keeps them resident (Log.syms). The hash domain and the MAC input are
// computed over the decoded strings and are unchanged from v2, so chains,
// MACs and signed checkpoints are byte-for-byte the ones v2 and v3 wrote.
//
// Legacy layouts still decode, so a log begun by an older binary keeps
// verifying and continues in v4:
//   - v3 is v4 with every symbol field a token (frame.AppendToken).
//   - v2 (u16 2 | u64 seq | i64 unixNano | str actor | str action |
//     str record | u64 recVersion | str outcome | str detail | str trace |
//     32B prevHash | 32B hash | str mac, str = u32 len || bytes) stored Seq
//     and Hash, which must equal the ones the reader computes.
const (
	codecVersion = 4
	codecV3      = 3
)

// actionWords and outcomeWords are the vocabularies of the v3 and v4
// layouts. They are part of the format: append only.
var (
	actionWords = []string{
		string(ActionCreate), string(ActionRead), string(ActionCorrect), string(ActionSearch),
		string(ActionDelete), string(ActionMigrateOut), string(ActionMigrateIn), string(ActionBackup),
		string(ActionRestore), string(ActionVerify), string(ActionBreakGlass), string(ActionPolicy),
	}
	outcomeWords = []string{string(OutcomeAllowed), string(OutcomeDenied), string(OutcomeError)}
)

// The symbol fields of the v4 layout, indexing a symbols value.
const (
	symActor = iota
	symRecord
	symDetail
	numSyms
)

// symbols is a log's symbol tables: per field, its distinct non-empty values
// by number, in order of first appearance. Tables only grow, so a copy taken
// under the log lock stays valid while appends extend them.
type symbols [numSyms][]string

// symbolValues is e's value for each symbol field.
func symbolValues(e Event) [numSyms]string {
	return [numSyms]string{symActor: e.Actor, symRecord: e.Record, symDetail: e.Detail}
}

// encodeEvent writes e in the v4 layout. nums[f] is the number of e's value
// in symbol table f, or -1 when the log's table does not hold it yet.
func encodeEvent(e Event, nums [numSyms]int) []byte {
	b := make([]byte, 0, 96+len(e.Trace)+len(e.MAC))
	b = append(b, codecVersion)
	b = frame.AppendTime(b, e.Timestamp)
	b = frame.AppendSymbol(b, e.Actor, nums[symActor])
	b = frame.AppendWord(b, string(e.Action), actionWords)
	b = frame.AppendSymbol(b, e.Record, nums[symRecord])
	b = frame.AppendUvarint(b, e.Version)
	b = frame.AppendWord(b, string(e.Outcome), outcomeWords)
	b = frame.AppendSymbol(b, e.Detail, nums[symDetail])
	b = frame.AppendToken(b, e.Trace)
	b = append(b, e.PrevHash[:]...)
	return frame.AppendVarBytes(b, e.MAC)
}

// decodeEvent reads the stored bytes of the seq-th event, resolving symbol
// references through syms, and fills in what the layout leaves to the
// reader: Seq, and Hash computed from the content. The one hash it computes
// is the one checkLink's MAC check consumes. defined reports the symbol
// fields a v4 event wrote out; only a reader holding the tables as of seq
// can tell whether that was their first occurrence (chainReader does).
func decodeEvent(data []byte, seq uint64, syms *symbols) (e Event, defined [numSyms]bool, err error) {
	obs.CountWork(obs.WorkAuditDecode)
	e, defined, legacy, err := parseEvent(data, syms)
	switch {
	case err != nil:
		return Event{}, defined, err
	case !legacy:
		e.Seq = seq
		e.Hash = eventHash(e)
	case e.Seq != seq:
		return Event{}, defined, fmt.Errorf("%w: sequence %d, want %d", ErrChainBroken, e.Seq, seq)
	case eventHash(e) != e.Hash:
		return Event{}, defined, fmt.Errorf("%w: content hash mismatch at seq %d", ErrChainBroken, seq)
	}
	return e, defined, nil
}

// parseEvent reads any layout without checking it against a chain. A legacy
// v2 event comes back with the Seq and Hash it stored; a v3 or v4 event with
// both zero.
func parseEvent(data []byte, syms *symbols) (e Event, defined [numSyms]bool, legacy bool, err error) {
	r := frame.NewReader(data)
	switch ver := r.U8(); ver {
	case codecVersion:
		e.Timestamp = r.Time()
		e.Actor, defined[symActor] = r.Symbol(syms[symActor])
		e.Action = Action(r.Word(actionWords))
		e.Record, defined[symRecord] = r.Symbol(syms[symRecord])
		e.Version = r.Uvarint()
		e.Outcome = Outcome(r.Word(outcomeWords))
		e.Detail, defined[symDetail] = r.Symbol(syms[symDetail])
		e.Trace = r.Token()
		r.Fixed(e.PrevHash[:])
		e.MAC = r.VarBytes()
	case codecV3:
		e = Event{
			Timestamp: r.Time(), Actor: r.Token(), Action: Action(r.Word(actionWords)), Record: r.Token(),
			Version: r.Uvarint(), Outcome: Outcome(r.Word(outcomeWords)), Detail: r.Token(), Trace: r.Token(),
		}
		r.Fixed(e.PrevHash[:])
		e.MAC = r.VarBytes()
	case 0: // the high byte of a legacy u16 version
		if ver := r.U8(); ver != 2 && r.Err() == nil {
			return Event{}, defined, false, fmt.Errorf("%w: version %d", ErrCorrupt, ver)
		}
		e = Event{
			Seq: r.U64(), Timestamp: r.Time(), Actor: r.Str(), Action: Action(r.Str()), Record: r.Str(),
			Version: r.U64(), Outcome: Outcome(r.Str()), Detail: r.Str(), Trace: r.Str(),
		}
		r.Fixed(e.PrevHash[:])
		r.Fixed(e.Hash[:])
		e.MAC = r.Bytes()
		legacy = true
	default:
		return Event{}, defined, false, fmt.Errorf("%w: version %d", ErrCorrupt, ver)
	}
	if err := r.Done(); err != nil {
		return Event{}, [numSyms]bool{}, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return e, defined, legacy, nil
}

// chainReader decodes a log's events in chain order from the first,
// rebuilding the symbol tables from the prefix it has read. It is the
// sequential decoder behind Open, Verify and the unfiltered Search, and it
// refuses a v4 event not in its one encoding: a value its table already
// holds written out is ErrCorrupt, as is (in frame.Reader.Symbol) a
// reference to a number not yet defined.
type chainReader struct {
	seq  uint64
	syms symbols
	nums [numSyms]map[string]int
}

func newChainReader() *chainReader {
	c := &chainReader{}
	for f := range c.nums {
		c.nums[f] = make(map[string]int)
	}
	return c
}

// next decodes the next event and adds the values it carries to the tables.
func (c *chainReader) next(data []byte) (Event, error) {
	e, defined, err := decodeEvent(data, c.seq, &c.syms)
	if err != nil {
		return Event{}, err
	}
	for f, s := range symbolValues(e) {
		if s == "" {
			continue
		}
		if _, known := c.nums[f][s]; known {
			if defined[f] {
				return Event{}, fmt.Errorf("%w: seq %d writes out a value symbol %d already holds", ErrCorrupt, c.seq, c.nums[f][s])
			}
			continue
		}
		c.nums[f][s] = len(c.syms[f])
		c.syms[f] = append(c.syms[f], s)
	}
	c.seq++
	return e, nil
}
