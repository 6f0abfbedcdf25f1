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

// Stored event layout, v3 — what a Tracker writes to its own medium (fixed
// ints big-endian):
//
//	u8 3 | 32B mac | token record | word type | i64 unixNano | token actor |
//	token system | token peer | 32B contentHash |
//	varbytes signerKey | varbytes signature
//
// (frame.AppendToken, AppendWord, AppendVarBytes). It stores only what the
// tracker cannot recompute: Index and PrevHash are the event's place in its
// record's chain, which the tracker reads in order, and Hash is eventHash of
// the rest. The signer key and signature are stored only for an event another
// system signed (an adopted history); for the tracker's own both are empty,
// and Export signs the event when it leaves. mac is HMAC-SHA-256, under a key
// derived from the tracker's signing seed, over Hash followed by every byte
// after the mac (macInput): the hash fixes the event's content and place, the
// rest its signer as stored, so only the holder of the seed can write an event
// the tracker accepts or add, strip or swap a signer on one. The hash domain
// and the signed bytes are EncodeEvent's, unchanged.
//
// Older mediums still decode. A v2 event is the same without mac, with the
// signer key empty when it is the tracker's own and the signature always
// stored. A medium written before v2 holds EncodeEvent's self-contained layout
// (leading byte 0, the high byte of its u16 version), whose stored Index,
// PrevHash and Hash must equal the ones computed. Both carry a signature in
// place of a MAC.
const (
	storedVersion = 3
	storedV2      = 2
	macSize       = 32
)

// typeWords is the stored vocabulary of event types: part of the format,
// append only.
var typeWords = []string{
	string(EventCreated), string(EventCorrected), string(EventMigratedIn), string(EventMigratedOut),
	string(EventBackedUp), string(EventRestored), string(EventShredded),
}

// encodeStored is the v3 layout of e on the medium of a tracker signing with
// own, its mac left zero for sealStored to fill in.
func encodeStored(e Event, own vcrypto.PublicKey) []byte {
	b := make([]byte, 0, 128+len(e.Record)+len(e.Actor)+len(e.System)+len(e.Peer)+len(e.SignerKey)+len(e.Signature))
	b = append(b, storedVersion)
	b = append(b, make([]byte, macSize)...)
	b = frame.AppendToken(b, e.Record)
	b = frame.AppendWord(b, string(e.Type), typeWords)
	b = frame.AppendTime(b, e.Timestamp)
	b = frame.AppendToken(b, e.Actor)
	b = frame.AppendToken(b, e.System)
	b = frame.AppendToken(b, e.Peer)
	b = append(b, e.ContentHash[:]...)
	var key, sig []byte
	if !bytes.Equal(e.SignerKey, own) {
		key, sig = e.SignerKey, e.Signature
	}
	b = frame.AppendVarBytes(b, key)
	return frame.AppendVarBytes(b, sig)
}

// sealStored fills in the mac of b, a v3 event that hashes to hash, under mac.
func sealStored(b []byte, mac *vcrypto.KeyedMAC, hash [32]byte) []byte {
	var tag [macSize]byte
	copy(b[1:], mac.Sum(tag[:0], macInput(hash, b[1+macSize:])))
	return b
}

// macInput is what the mac of a v3 event covers: its hash, then the stored
// bytes that follow the mac.
func macInput(hash [32]byte, rest []byte) []byte {
	return append(append(make([]byte, 0, len(hash)+len(rest)), hash[:]...), rest...)
}

// decodeStored reads an event from the medium of a tracker signing with own
// and MACing with mac. place names the index and predecessor hash the next
// event of a record's chain must have; decodeStored fills them in, hashes the
// event and checks a v3 event's MAC, or, for a pre-v2 event, checks the
// index, predecessor and hash it stored against them. An event of the
// tracker's own comes back with its SignerKey set to own and, from a v3
// medium, no Signature.
func decodeStored(data []byte, own vcrypto.PublicKey, mac *vcrypto.KeyedMAC, place func(record string) (uint64, [32]byte)) (Event, error) {
	if len(data) > 0 && data[0] == 0 {
		e, err := DecodeEvent(data)
		if err != nil {
			return Event{}, err
		}
		index, prev := place(e.Record)
		return e, checkLink(e, e.Record, index, prev)
	}
	r := frame.NewReader(data)
	ver := r.U8()
	if ver != storedVersion && ver != storedV2 {
		return Event{}, fmt.Errorf("%w: stored version %d", ErrCorrupt, ver)
	}
	var tag [macSize]byte
	if ver == storedVersion {
		r.Fixed(tag[:])
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
	if ver == storedVersion && (len(e.SignerKey) == 0) != (len(e.Signature) == 0) {
		return Event{}, fmt.Errorf("%w: a signer key and a signature come together or not at all", ErrCorrupt)
	}
	if len(e.SignerKey) == 0 {
		e.SignerKey = own
	}
	e.Index, e.PrevHash = place(e.Record)
	e.Hash = eventHash(e)
	if ver == storedVersion && !mac.Verify(macInput(e.Hash, data[1+macSize:]), tag[:]) {
		return Event{}, fmt.Errorf("%w: record %s index %d (%w)", ErrBadMAC, e.Record, e.Index, ErrChainBroken)
	}
	return e, nil
}
