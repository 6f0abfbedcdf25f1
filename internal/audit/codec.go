package audit

import (
	"fmt"

	"medvault/internal/frame"
)

// Persisted event layout, v3 (fixed ints big-endian):
//
//	u8 3 | i64 unixNano | token actor | word action | token record |
//	uvarint recVersion | word outcome | token detail | token trace |
//	32B prevHash | varbytes mac
//
// (frame.AppendToken, AppendWord, AppendVarBytes). An event stores only what
// a reader cannot recompute: its Seq is its place in the chain, which every
// reader knows, and its Hash is eventHash of the rest. The hash domain and the
// MAC input are unchanged from v2, so chains, MACs and signed checkpoints are
// byte-for-byte the ones v2 wrote.
//
// Legacy v2 events (u16 2 | u64 seq | i64 unixNano | str actor | str action |
// str record | u64 recVersion | str outcome | str detail | str trace |
// 32B prevHash | 32B hash | str mac, str = u32 len || bytes) still decode, so
// a log begun by an older binary keeps verifying; their stored Seq and Hash
// must equal the ones the reader computes.
const codecVersion = 3

// actionWords and outcomeWords are the vocabularies of the v3 layout. They
// are part of the format: append only.
var (
	actionWords = []string{
		string(ActionCreate), string(ActionRead), string(ActionCorrect), string(ActionSearch),
		string(ActionDelete), string(ActionMigrateOut), string(ActionMigrateIn), string(ActionBackup),
		string(ActionRestore), string(ActionVerify), string(ActionBreakGlass), string(ActionPolicy),
	}
	outcomeWords = []string{string(OutcomeAllowed), string(OutcomeDenied), string(OutcomeError)}
)

func encodeEvent(e Event) []byte {
	b := make([]byte, 0, 80+len(e.Actor)+len(e.Record)+len(e.Detail)+len(e.Trace)+len(e.MAC))
	b = append(b, codecVersion)
	b = frame.AppendTime(b, e.Timestamp)
	b = frame.AppendToken(b, e.Actor)
	b = frame.AppendWord(b, string(e.Action), actionWords)
	b = frame.AppendToken(b, e.Record)
	b = frame.AppendUvarint(b, e.Version)
	b = frame.AppendWord(b, string(e.Outcome), outcomeWords)
	b = frame.AppendToken(b, e.Detail)
	b = frame.AppendToken(b, e.Trace)
	b = append(b, e.PrevHash[:]...)
	return frame.AppendVarBytes(b, e.MAC)
}

// decodeEvent reads the stored bytes of the seq-th event and fills in what
// the layout leaves to the reader: Seq, and Hash computed from the content.
// The one hash it computes is the one checkLink's MAC check consumes.
func decodeEvent(data []byte, seq uint64) (Event, error) {
	e, legacy, err := parseEvent(data)
	switch {
	case err != nil:
		return Event{}, err
	case !legacy:
		e.Seq = seq
		e.Hash = eventHash(e)
	case e.Seq != seq:
		return Event{}, fmt.Errorf("%w: sequence %d, want %d", ErrChainBroken, e.Seq, seq)
	case eventHash(e) != e.Hash:
		return Event{}, fmt.Errorf("%w: content hash mismatch at seq %d", ErrChainBroken, seq)
	}
	return e, nil
}

// parseEvent reads either layout without checking it against a chain. A
// legacy v2 event comes back with the Seq and Hash it stored; a v3 event with
// both zero.
func parseEvent(data []byte) (e Event, legacy bool, err error) {
	r := frame.NewReader(data)
	switch ver := r.U8(); ver {
	case codecVersion:
		e = Event{
			Timestamp: r.Time(), Actor: r.Token(), Action: Action(r.Word(actionWords)), Record: r.Token(),
			Version: r.Uvarint(), Outcome: Outcome(r.Word(outcomeWords)), Detail: r.Token(), Trace: r.Token(),
		}
		r.Fixed(e.PrevHash[:])
		e.MAC = r.VarBytes()
	case 0: // the high byte of a legacy u16 version
		if ver := r.U8(); ver != 2 && r.Err() == nil {
			return Event{}, false, fmt.Errorf("%w: version %d", ErrCorrupt, ver)
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
		return Event{}, false, fmt.Errorf("%w: version %d", ErrCorrupt, ver)
	}
	if err := r.Done(); err != nil {
		return Event{}, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return e, legacy, nil
}
