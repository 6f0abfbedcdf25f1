package provenance

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"medvault/internal/frame"
	"medvault/internal/vcrypto"
)

// Transfer layout of an event — self-contained, for export bundles and
// backups, and what a tracker's medium held before the stored layout below
// (all integers big-endian, str is u32 len || bytes):
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

// Stored event layout, v2 — what a Tracker writes to its own medium (fixed
// ints big-endian):
//
//	u8 2 | token record | word type | i64 unixNano | token actor |
//	token system | token peer | 32B contentHash | varbytes signerKey |
//	varbytes signature
//
// (frame.AppendToken, AppendWord, AppendVarBytes). It stores only what the
// tracker cannot recompute: Index and PrevHash are the event's place in its
// record's chain, which the tracker reads in order, Hash is eventHash of the
// rest, and an empty signer key means the tracker's own. The hash domain and
// the signed bytes are EncodeEvent's, unchanged.
//
// A medium written before v2 holds EncodeEvent's self-contained layout
// (leading byte 0, the high byte of its u16 version); it still decodes, and
// its stored Index, PrevHash and Hash must equal the ones computed.
const storedVersion = 2

// typeWords is the v2 vocabulary of event types: part of the format, append
// only.
var typeWords = []string{
	string(EventCreated), string(EventCorrected), string(EventMigratedIn), string(EventMigratedOut),
	string(EventBackedUp), string(EventRestored), string(EventShredded),
}

// encodeStored is the v2 layout of e on the medium of a tracker signing with
// own.
func encodeStored(e Event, own vcrypto.PublicKey) []byte {
	b := make([]byte, 0, 128+len(e.Record)+len(e.Actor)+len(e.System)+len(e.Peer)+len(e.SignerKey)+len(e.Signature))
	b = append(b, storedVersion)
	b = frame.AppendToken(b, e.Record)
	b = frame.AppendWord(b, string(e.Type), typeWords)
	b = frame.AppendTime(b, e.Timestamp)
	b = frame.AppendToken(b, e.Actor)
	b = frame.AppendToken(b, e.System)
	b = frame.AppendToken(b, e.Peer)
	b = append(b, e.ContentHash[:]...)
	key := e.SignerKey
	if bytes.Equal(key, own) {
		key = nil
	}
	b = frame.AppendVarBytes(b, key)
	return frame.AppendVarBytes(b, e.Signature)
}

// decodeStored reads an event from the medium of a tracker signing with own.
// place names the index and predecessor hash the next event of a record's
// chain must have; decodeStored fills them in and hashes the event, or, for a
// pre-v2 event, checks the ones it stored against them.
func decodeStored(data []byte, own vcrypto.PublicKey, place func(record string) (uint64, [32]byte)) (Event, error) {
	if len(data) > 0 && data[0] == 0 {
		e, err := DecodeEvent(data)
		if err != nil {
			return Event{}, err
		}
		index, prev := place(e.Record)
		return e, checkLink(e, e.Record, index, prev)
	}
	r := frame.NewReader(data)
	if ver := r.U8(); ver != storedVersion {
		return Event{}, fmt.Errorf("%w: stored version %d", ErrCorrupt, ver)
	}
	e := Event{
		Record: r.Token(), Type: EventType(r.Word(typeWords)), Timestamp: r.Time(),
		Actor: r.Token(), System: r.Token(), Peer: r.Token(),
	}
	r.Fixed(e.ContentHash[:])
	e.SignerKey = vcrypto.PublicKey(r.VarBytes())
	e.Signature = r.VarBytes()
	if err := r.Done(); err != nil {
		return Event{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(e.SignerKey) == 0 {
		e.SignerKey = own
	}
	e.Index, e.PrevHash = place(e.Record)
	e.Hash = eventHash(e)
	return e, nil
}
