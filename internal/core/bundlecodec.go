package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"medvault/internal/ehr"
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
	var buf bytes.Buffer
	buf.WriteString("MVXB")
	writeStr(&buf, b.ID)
	writeStr(&buf, string(b.Category))
	writeU32(&buf, uint32(len(b.Versions)))
	for _, ev := range b.Versions {
		writeBytes(&buf, ehr.Encode(ev.Record))
		writeStr(&buf, ev.Version.Author)
		writeU64(&buf, ev.Version.Number)
		writeU64(&buf, uint64(ev.Version.Timestamp.UnixNano()))
		buf.Write(ev.PlainHash[:])
	}
	writeU32(&buf, uint32(len(b.Custody)))
	for _, ce := range b.Custody {
		writeBytes(&buf, provenance.EncodeEvent(ce))
	}
	return buf.Bytes()
}

// DecodeBundle parses the output of EncodeBundle.
func DecodeBundle(data []byte) (ExportBundle, error) {
	r := bytes.NewReader(data)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != "MVXB" {
		return ExportBundle{}, fmt.Errorf("%w: bad magic", ErrBadBundle)
	}
	var b ExportBundle
	id, err := readStr(r)
	if err != nil {
		return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
	}
	b.ID = id
	cat, err := readStr(r)
	if err != nil {
		return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
	}
	b.Category = ehr.Category(cat)
	nVer, err := readU32(r)
	if err != nil {
		return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
	}
	for i := uint32(0); i < nVer; i++ {
		recBytes, err := readBytesField(r)
		if err != nil {
			return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
		}
		rec, err := ehr.Decode(recBytes)
		if err != nil {
			return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
		}
		var ev ExportedVersion
		ev.Record = rec
		if ev.Version.Author, err = readStr(r); err != nil {
			return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
		}
		if ev.Version.Number, err = readU64(r); err != nil {
			return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
		}
		tsNano, err := readU64(r)
		if err != nil {
			return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
		}
		ev.Version.Timestamp = time.Unix(0, int64(tsNano)).UTC()
		if _, err := io.ReadFull(r, ev.PlainHash[:]); err != nil {
			return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
		}
		b.Versions = append(b.Versions, ev)
	}
	nCust, err := readU32(r)
	if err != nil {
		return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
	}
	for i := uint32(0); i < nCust; i++ {
		ceBytes, err := readBytesField(r)
		if err != nil {
			return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
		}
		ce, err := provenance.DecodeEvent(ceBytes)
		if err != nil {
			return ExportBundle{}, fmt.Errorf("%w: %v", ErrBadBundle, err)
		}
		b.Custody = append(b.Custody, ce)
	}
	if r.Len() != 0 {
		return ExportBundle{}, fmt.Errorf("%w: trailing bytes", ErrBadBundle)
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
	var buf bytes.Buffer
	buf.WriteString("medvault/sig/")
	buf.WriteString(purpose)
	buf.WriteByte(0)
	buf.Write(data)
	return buf.Bytes()
}
