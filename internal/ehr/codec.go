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

// Encode serializes a record to its canonical binary form. The encoding is
// deterministic: the same record always produces the same bytes, which is
// what lets content hashes and Merkle commitments identify versions.
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
