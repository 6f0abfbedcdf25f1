package ehr

import (
	"errors"
	"fmt"

	"medvault/internal/frame"
)

// ErrCorrupt indicates an undecodable record encoding.
var ErrCorrupt = errors.New("ehr: corrupt record encoding")

// Record wire layout (integers big-endian, str is u32 len || bytes):
//
//	magic "MVR1" | str id | str patient | str mrn | str category |
//	str author | i64 unixNano | str title | str body | u32 n | str code * n
const recMagic = "MVR1"

// Encode serializes a record to its canonical binary form, the domain of
// content hashes and export bundles; a vault seals EncodeSealed instead. The
// encoding is deterministic: the same record always produces the same bytes,
// which is what lets a content hash identify a version across systems.
func Encode(r Record) []byte {
	// Everything but the body is short; one allocation covers the usual record.
	b := append(make([]byte, 0, 192+len(r.Body)), recMagic...)
	b = frame.AppendStr(b, r.ID)
	b = frame.AppendStr(b, r.Patient)
	b = frame.AppendStr(b, r.MRN)
	b = frame.AppendStr(b, string(r.Category))
	b = frame.AppendStr(b, r.Author)
	b = frame.AppendTime(b, r.CreatedAt)
	b = frame.AppendStr(b, r.Title)
	b = frame.AppendStr(b, r.Body)
	b = frame.AppendCount(b, len(r.Codes))
	for _, c := range r.Codes {
		b = frame.AppendStr(b, c)
	}
	return b
}

// Decode parses the output of Encode.
func Decode(data []byte) (Record, error) {
	r := frame.NewReader(data)
	if !r.Magic(recMagic) {
		return Record{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rec := Record{
		ID: r.Str(), Patient: r.Str(), MRN: r.Str(), Category: Category(r.Str()),
		Author: r.Str(), CreatedAt: r.Time(), Title: r.Str(), Body: r.Str(),
	}
	if n := r.Count(4); n > 0 { // each code needs at least a length prefix
		rec.Codes = make([]string, n)
		for i := range rec.Codes {
			rec.Codes[i] = r.Str()
		}
	}
	if err := r.Done(); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rec, nil
}

// CategoryWords is the at-rest category vocabulary (frame.AppendWord) of a
// sealed record and of meta.wal's version entries. It is part of both
// formats: it may only grow at the end, and a category not in it is spelled
// out.
var CategoryWords = []string{"clinical", "lab", "imaging", "billing", "occupational"}

// Sealed layout, the plaintext a vault seals per version (vstr is uvarint
// len || bytes):
//
//	u8 SealedTag | vstr patient | vstr mrn | word category | vstr author |
//	i64 unixNano | vstr title | vstr body | uvarint n | vstr code * n
//
// It has no ID: the seal's AAD binds the ciphertext to its record, and the
// opener supplies the ID it opened under. SealedTag is not 'M', so an opener
// tells the layout from the MVR1 encoding an older binary sealed.
const SealedTag = 0x01

// EncodeSealed serializes r, but for its ID, to the sealed layout. Like
// Encode, it has one encoding per record.
func EncodeSealed(r Record) []byte {
	b := append(make([]byte, 0, 64+len(r.Patient)+len(r.Title)+len(r.Body)), SealedTag)
	b = frame.AppendVarStr(b, r.Patient)
	b = frame.AppendVarStr(b, r.MRN)
	b = frame.AppendWord(b, string(r.Category), CategoryWords)
	b = frame.AppendVarStr(b, r.Author)
	b = frame.AppendTime(b, r.CreatedAt)
	b = frame.AppendVarStr(b, r.Title)
	b = frame.AppendVarStr(b, r.Body)
	b = frame.AppendUvarint(b, uint64(len(r.Codes)))
	for _, c := range r.Codes {
		b = frame.AppendVarStr(b, c)
	}
	return b
}

// DecodeSealed parses the output of EncodeSealed as record id's.
func DecodeSealed(data []byte, id string) (Record, error) {
	r := frame.NewReader(data)
	if r.U8() != SealedTag {
		return Record{}, fmt.Errorf("%w: not a sealed record", ErrCorrupt)
	}
	rec := Record{
		ID: id, Patient: r.VarStr(), MRN: r.VarStr(), Category: Category(r.Word(CategoryWords)),
		Author: r.VarStr(), CreatedAt: r.Time(), Title: r.VarStr(), Body: r.VarStr(),
	}
	// The count is medium content: nothing is sized by it, and each code
	// read consumes input or latches an error.
	for n := r.Uvarint(); uint64(len(rec.Codes)) < n && r.Err() == nil; {
		rec.Codes = append(rec.Codes, r.VarStr())
	}
	if err := r.Done(); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rec, nil
}
