package audit

import (
	"encoding/binary"
	"fmt"

	"medvault/internal/frame"
)

// Persisted event layout (all integers big-endian):
//
//	u16 version | u64 seq | i64 unixNano | str actor | str action |
//	str record | u64 recVersion | str outcome | str detail | str trace |
//	32B prevHash | 32B hash | str mac
//
// where str is u32 length || bytes. Version 2 added the trace field; the
// codec is strict (only the current version decodes) because the event hash
// domain is versioned in lockstep — a v1 chain would fail verification under
// v2 hashing anyway, so decoding it would only defer the error.
const codecVersion = 2

func encodeEvent(e Event) []byte {
	b := make([]byte, 0, 160+len(e.Actor)+len(e.Record)+len(e.Detail)+len(e.Trace))
	b = binary.BigEndian.AppendUint16(b, codecVersion)
	b = binary.BigEndian.AppendUint64(b, e.Seq)
	b = frame.AppendTime(b, e.Timestamp)
	b = frame.AppendStr(b, e.Actor)
	b = frame.AppendStr(b, string(e.Action))
	b = frame.AppendStr(b, e.Record)
	b = binary.BigEndian.AppendUint64(b, e.Version)
	b = frame.AppendStr(b, string(e.Outcome))
	b = frame.AppendStr(b, e.Detail)
	b = frame.AppendStr(b, e.Trace)
	b = append(b, e.PrevHash[:]...)
	b = append(b, e.Hash[:]...)
	return frame.AppendBytes(b, e.MAC)
}

func decodeEvent(data []byte) (Event, error) {
	r := frame.NewReader(data)
	if ver := r.U16(); ver != codecVersion {
		return Event{}, fmt.Errorf("%w: version %d", ErrCorrupt, ver)
	}
	e := Event{
		Seq: r.U64(), Timestamp: r.Time(), Actor: r.Str(), Action: Action(r.Str()), Record: r.Str(),
		Version: r.U64(), Outcome: Outcome(r.Str()), Detail: r.Str(), Trace: r.Str(),
	}
	r.Fixed(e.PrevHash[:])
	r.Fixed(e.Hash[:])
	e.MAC = r.Bytes()
	if err := r.Done(); err != nil {
		return Event{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return e, nil
}
