package index

import (
	"encoding/binary"
	"fmt"
	"sort"

	"medvault/internal/frame"
)

// Plaintext snapshot layout:
//
//	magic "MVPX" | u16 version | u32 nDocs { str id | u32 n | str word * n }
//
// Postings are rebuilt from the per-document word lists on load. The
// keywords sit in the snapshot in the clear — that is the point of this
// baseline, and what the E4 leakage probe demonstrates.
const (
	ptMagic   = "MVPX"
	ptVersion = 1
)

// Snapshot implements Index.
func (p *Plaintext) Snapshot() ([]byte, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	b := binary.BigEndian.AppendUint16([]byte(ptMagic), ptVersion)
	return appendDocs(b, sortedKeys(p.docs),
		func(id string) []string { return p.docs[id] },
		func(w string) string { return w }), nil
}

// appendDocs appends the per-document term lists both snapshot formats
// share: u32 nDocs { str id | u32 n | str term * n }, one document per ID of
// ids (sorted), its terms listed by terms and written as spell renders them.
func appendDocs[T any](b []byte, ids []string, terms func(id string) []T, spell func(T) string) []byte {
	b = frame.AppendCount(b, len(ids))
	for _, id := range ids {
		b = frame.AppendStr(b, id)
		ts := terms(id)
		b = frame.AppendCount(b, len(ts))
		for _, t := range ts {
			b = frame.AppendStr(b, spell(t))
		}
	}
	return b
}

// readDocs is appendDocs' one decoder. Every count is checked against the
// bytes that remain before it sizes anything. Each complete document is
// handed to add as it is read, so a loader holds one term list at a time; a
// short read stops the walk and is left for the caller's Done.
func readDocs(r *frame.Reader, add func(id string, terms []string) error) error {
	for i, n := 0, r.Count(8); i < n; i++ { // a doc is at least two length prefixes
		id := r.Str()
		terms := make([]string, r.Count(4))
		for j := range terms {
			terms[j] = r.Str()
		}
		if r.Err() != nil {
			break
		}
		if err := add(id, terms); err != nil {
			return err
		}
	}
	return nil
}

// readHeader consumes a snapshot's magic and version.
func readHeader(r *frame.Reader, magic string, version uint16) error {
	if !r.Magic(magic) {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if r.U16() != version {
		return fmt.Errorf("%w: bad version", ErrCorrupt)
	}
	return nil
}

// LoadPlaintext reconstructs a plaintext index from a snapshot.
func LoadPlaintext(snap []byte) (*Plaintext, error) {
	r := frame.NewReader(snap)
	if err := readHeader(r, ptMagic, ptVersion); err != nil {
		return nil, err
	}
	p := NewPlaintext()
	_ = readDocs(r, func(id string, words []string) error { // never fails: a repeated ID keeps its last list
		p.docs[id] = words
		return nil
	})
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	for id, words := range p.docs {
		for _, w := range words {
			set, ok := p.postings[w]
			if !ok {
				set = make(map[string]bool)
				p.postings[w] = set
			}
			set[id] = true
		}
	}
	return p, nil
}

// StorageBytes implements Index.
func (p *Plaintext) StorageBytes() int {
	snap, err := p.Snapshot()
	if err != nil {
		return 0
	}
	return len(snap)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
