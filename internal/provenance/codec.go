package provenance

import (
	"encoding/binary"
	"fmt"

	"medvault/internal/frame"
	"medvault/internal/vcrypto"
)

// Persisted event layout (all integers big-endian, str is u32 len || bytes):
//
//	u16 version | str record | u64 index | str type | i64 unixNano |
//	str actor | str system | str peer | 32B contentHash | 32B prevHash |
//	32B hash | str signerKey | str signature
const codecVersion = 1

// EncodeEvent serializes a custody event for storage and for transfer
// between systems (migration bundles, backups). The encoding is
// self-contained: DecodeEvent plus checkLink and checkSignature recover and
// re-validate the event on the other side.
func EncodeEvent(e Event) []byte {
	b := make([]byte, 0, 192+len(e.Record)+len(e.Actor)+len(e.System)+len(e.Peer)+len(e.SignerKey)+len(e.Signature))
	b = binary.BigEndian.AppendUint16(b, codecVersion)
	b = frame.AppendStr(b, e.Record)
	b = binary.BigEndian.AppendUint64(b, e.Index)
	b = frame.AppendStr(b, string(e.Type))
	b = frame.AppendTime(b, e.Timestamp)
	b = frame.AppendStr(b, e.Actor)
	b = frame.AppendStr(b, e.System)
	b = frame.AppendStr(b, e.Peer)
	b = append(b, e.ContentHash[:]...)
	b = append(b, e.PrevHash[:]...)
	b = append(b, e.Hash[:]...)
	b = frame.AppendBytes(b, e.SignerKey)
	return frame.AppendBytes(b, e.Signature)
}

// DecodeEvent parses the output of EncodeEvent.
func DecodeEvent(data []byte) (Event, error) {
	r := frame.NewReader(data)
	if ver := r.U16(); ver != codecVersion {
		return Event{}, fmt.Errorf("%w: version %d", ErrCorrupt, ver)
	}
	e := Event{
		Record: r.Str(), Index: r.U64(), Type: EventType(r.Str()), Timestamp: r.Time(),
		Actor: r.Str(), System: r.Str(), Peer: r.Str(),
	}
	r.Fixed(e.ContentHash[:])
	r.Fixed(e.PrevHash[:])
	r.Fixed(e.Hash[:])
	e.SignerKey = vcrypto.PublicKey(r.Bytes())
	e.Signature = r.Bytes()
	if err := r.Done(); err != nil {
		return Event{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return e, nil
}
