package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"medvault/internal/ehr"
	"medvault/internal/frame"
	"medvault/internal/provenance"
	"medvault/internal/vcrypto"
)

// ErrBadBundle indicates an undecodable serialized export bundle.
var ErrBadBundle = errors.New("core: corrupt export bundle encoding")

// EncodeBundle serializes an ExportBundle for transfer or backup. The bytes
// contain PLAINTEXT record content: callers must protect them in transit and
// at rest (the migrate package sends them over an authenticated channel; the
// backup package seals them under the backup key).
//
// Layout: magic "MVXB" | str id | str category | u32 nVersions
//
//	{ bytes record | str author | u64 number | i64 tsNano | 32B plainHash }*
//	u32 nCustody { bytes provenanceEvent }*
func EncodeBundle(b ExportBundle) []byte {
	out := frame.AppendStr([]byte(bundleMagic), b.ID)
	out = frame.AppendStr(out, string(b.Category))
	out = frame.AppendCount(out, len(b.Versions))
	for _, ev := range b.Versions {
		out = frame.AppendBytes(out, ehr.Encode(ev.Record))
		out = frame.AppendStr(out, ev.Version.Author)
		out = binary.BigEndian.AppendUint64(out, ev.Version.Number)
		out = frame.AppendTime(out, ev.Version.Timestamp)
		out = append(out, ev.PlainHash[:]...)
	}
	out = frame.AppendCount(out, len(b.Custody))
	for _, ce := range b.Custody {
		out = frame.AppendBytes(out, provenance.EncodeEvent(ce))
	}
	return out
}

const bundleMagic = "MVXB"

// DecodeBundle parses the output of EncodeBundle.
func DecodeBundle(data []byte) (ExportBundle, error) {
	r := frame.NewReader(data)
	if !r.Magic(bundleMagic) {
		return ExportBundle{}, fmt.Errorf("%w: bad magic", ErrBadBundle)
	}
	b := ExportBundle{ID: r.Str(), Category: ehr.Category(r.Str())}
	// A short read leaves the loops early and is reported by Done, not as a
	// nested decoder's complaint about a zero-length field.
	for i, n := 0, r.Count(4+4+8+8+32); i < n; i++ {
		var ev ExportedVersion
		recBytes := r.Bytes()
		ev.Version.Author = r.Str()
		ev.Version.Number = r.U64()
		ev.Version.Timestamp = r.Time()
		r.Fixed(ev.PlainHash[:])
		if r.Err() != nil {
			break
		}
		var err error
		if ev.Record, err = ehr.Decode(recBytes); err != nil {
			return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
		}
		b.Versions = append(b.Versions, ev)
	}
	for i, n := 0, r.Count(4); i < n; i++ {
		ceBytes := r.Bytes()
		if r.Err() != nil {
			break
		}
		ce, err := provenance.DecodeEvent(ceBytes)
		if err != nil {
			return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
		}
		b.Custody = append(b.Custody, ce)
	}
	if err := r.Done(); err != nil {
		return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
	}
	return b, nil
}

// CanonicalRecordBytes returns the canonical encoding of a record — the
// bytes whose hash is the cross-system content commitment (PlainHash).
func CanonicalRecordBytes(rec ehr.Record) []byte { return ehr.Encode(rec) }

// Sign signs data under the vault's identity with domain separation by
// purpose. Used by the migrate and backup packages for manifests.
func (c *Cluster) Sign(purpose string, data []byte) []byte {
	return c.shards[0].signer.Sign(signingBytes(purpose, data))
}

// VerifySignature verifies a purpose-bound signature by pub.
func VerifySignature(pub vcrypto.PublicKey, purpose string, data, sig []byte) error {
	return pub.Verify(signingBytes(purpose, data), sig)
}

func signingBytes(purpose string, data []byte) []byte {
	return append([]byte("medvault/sig/"+purpose+"\x00"), data...)
}
