package index

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"medvault/internal/frame"
	"medvault/internal/obs"
	"medvault/internal/recno"
	"medvault/internal/vcrypto"
)

// Index instrumentation: the SSE share of write and query cost, for the
// encrypted-vs-plaintext index overhead curve (experiment E4).
var (
	metAddSeconds = obs.Default.Histogram("medvault_index_add_seconds",
		"SSE index document-ingest latency.", obs.LatencyBuckets)
	metSearchSeconds = obs.Default.Histogram("medvault_index_search_seconds",
		"SSE index query latency.", obs.LatencyBuckets)
)

// SSE is a searchable-symmetric-encryption index. Keywords never appear in
// its stored form: each keyword is mapped to a pseudorandom token with
// HMAC-SHA-256 under a secret token key, and every posting list and the
// document-token table are sealed with AES-GCM under a separate value key
// before serialization. An adversary holding the index bytes sees only
// random-looking tokens and ciphertext — sizes and counts, nothing lexical.
//
// Search cost is one HMAC plus a hash lookup, the same complexity class as
// the plaintext index; the paper's required trade-off is a constant factor,
// not an asymptotic penalty (experiment E4 measures it).
//
// In memory, terms and documents are numbered: a (document, keyword) pair
// costs a uvarint gap in the term's posting list (postings.go) and a uvarint
// term number, a byte while the vocabulary is under 128 terms, in the
// document's term list. Every term list sits in one byte arena, in Tokenize
// order (the order the snapshot's docs table keeps), and a document is a
// fixed-size entry naming its bytes. A document is numbered after every live one when it is added (a
// correction renumbers it), so appending keeps each posting list ascending;
// removal leaves a dead slot, and dead arena bytes, that compact reclaims
// once a fifth of the slots are dead, so resident size follows the live
// documents, not their history. A document's ID is held once, as its record
// number in a recno.Table the index may share with the shard's other
// per-record tables.
type SSE struct {
	mu       sync.RWMutex
	tokens   *vcrypto.KeyedMAC // keyword -> token, under the token key
	valueKey vcrypto.Key
	termNum  map[string]uint32 // raw token -> term number; shares terms[n].tok's bytes
	terms    []term            // term number -> term; tok "" once its last document left
	recs     *recno.Table      // record numbers; lock order: mu → recs
	docOf    []uint32          // record number -> doc number + 1; 0 when not indexed
	docs     []doc             // doc number -> document; dead once removed
	arena    []byte            // every document's term list
	live     int               // live documents
}

type term struct {
	tok   string // the raw 32-byte HMAC token, held only here
	posts postings
}

// doc is a document: its term numbers, uvarints in Tokenize order, are
// arena[off:off+size].
type doc struct {
	off, size uint32
	rec       uint32 // the document's record number
}

// eachTerm calls fn with each of dc's term numbers, in Tokenize order.
func (s *SSE) eachTerm(dc doc, fn func(t uint32)) {
	for list := s.arena[dc.off : dc.off+dc.size]; len(list) > 0; {
		t, n := binary.Uvarint(list)
		fn(uint32(t))
		list = list[n:]
	}
}

// token is a keyword's raw HMAC-SHA-256 search token.
type token [32]byte

var _ Index = (*SSE)(nil)

// NewSSE returns an empty SSE index keyed from master. Token and value keys
// are domain-separated derivations, so the same master secret can safely
// drive the envelope layer elsewhere.
func NewSSE(master vcrypto.Key) *SSE { return NewSSEOn(recno.New(), master) }

// NewSSEOn is NewSSE numbering documents in recs, the table a shard shares
// among its per-record stores.
func NewSSEOn(recs *recno.Table, master vcrypto.Key) *SSE {
	return &SSE{
		tokens:   vcrypto.NewKeyedMAC(vcrypto.DeriveKey(master, "index/token")),
		valueKey: vcrypto.DeriveKey(master, "index/value"),
		termNum:  make(map[string]uint32),
		recs:     recs,
	}
}

// docNum returns the doc number of record number rec, if it is indexed; the
// caller holds s.mu.
func (s *SSE) docNum(rec uint32) (uint32, bool) {
	if int(rec) < len(s.docOf) && s.docOf[rec] != 0 {
		return s.docOf[rec] - 1, true
	}
	return 0, false
}

// token maps a normalized keyword to its pseudorandom search token. The
// token key is immutable, so tokenization needs no lock — callers compute
// tokens before entering the mutex, keeping the HMAC work (the dominant
// per-keyword cost) out of the serialized section under concurrency.
func (s *SSE) token(word string) (tok token) {
	obs.CountWork(obs.WorkSSEToken)
	s.tokens.Sum(tok[:0], []byte(word))
	return tok
}

// tokenHex is a token's snapshot spelling, 64 lowercase hex characters.
// With parseTokenHex it is the index's only use of hex: in memory a token
// is its raw bytes.
func tokenHex(tok string) string { return hex.EncodeToString([]byte(tok)) }

// parseTokenHex reads tokenHex's spelling back, and only that spelling.
func parseTokenHex(s string) (tok token, ok bool) {
	if len(s) != hex.EncodedLen(len(tok)) {
		return tok, false
	}
	_, err := hex.Decode(tok[:], []byte(s))
	return tok, err == nil && hex.EncodeToString(tok[:]) == s
}

// Add implements Index.
func (s *SSE) Add(id, text string) {
	defer metAddSeconds.ObserveSince(time.Now())
	words := Tokenize(text)
	toks := make([]token, len(words))
	for i, w := range words {
		toks[i] = s.token(w)
	}
	rec := s.recs.Intern(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(rec)
	s.addLocked(rec, toks) // Tokenize deduplicates, so this cannot fail
}

// addLocked indexes record number rec, which must not be live, under the
// next doc number. It reports false if toks repeats a token, which Tokenize
// never does.
func (s *SSE) addLocked(rec uint32, toks []token) bool {
	d := uint32(len(s.docs))
	if len(s.arena) > math.MaxUint32-len(toks)*binary.MaxVarintLen32 {
		panic("index: term arena past the 4 GiB a doc offset holds")
	}
	off := len(s.arena)
	for i := range toks {
		t, ok := s.termNum[string(toks[i][:])]
		if !ok {
			t = uint32(len(s.terms))
			tok := string(toks[i][:])
			s.termNum[tok] = t
			s.terms = append(s.terms, term{tok: tok})
		}
		p := &s.terms[t].posts
		if p.n > 0 && p.last == d {
			return false
		}
		p.add(d)
		s.arena = binary.AppendUvarint(reserve(s.arena, binary.MaxVarintLen32), uint64(t))
	}
	s.docOf = recno.Grow(s.docOf, rec)
	s.docOf[rec] = d + 1
	s.docs = append(s.docs, doc{off: uint32(off), size: uint32(len(s.arena) - off), rec: rec})
	s.live++
	return true
}

// lookup returns the posting list of a query token; nil when no live
// document has it.
func (s *SSE) lookup(tok token) *postings {
	if t, ok := s.termNum[string(tok[:])]; ok {
		return &s.terms[t].posts
	}
	return nil
}

// idsLocked maps a posting list's doc numbers to their IDs, sorted; nil
// maps to none.
func (s *SSE) idsLocked(p *postings) []string {
	if p == nil {
		return []string{}
	}
	ids, out := s.recs.IDs(), make([]string, 0, p.n)
	p.each(func(d uint32) { out = append(out, ids[s.docs[d].rec]) })
	sort.Strings(out)
	return out
}

// Search implements Index.
func (s *SSE) Search(keyword string) []string {
	defer metSearchSeconds.ObserveSince(time.Now())
	tok := s.token(NormalizeQuery(keyword))
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idsLocked(s.lookup(tok))
}

// SearchAll implements Index: conjunctive queries cost one HMAC per keyword
// plus a merge of sorted posting lists, with the same leakage profile as
// single-keyword search (the server learns which tokens co-occur in the
// query, nothing lexical).
func (s *SSE) SearchAll(keywords ...string) []string {
	defer metSearchSeconds.ObserveSince(time.Now())
	toks := make([]token, len(keywords))
	for i, kw := range keywords {
		toks[i] = s.token(NormalizeQuery(kw))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	lists := make([]*postings, len(toks))
	for i, tok := range toks {
		if lists[i] = s.lookup(tok); lists[i] == nil {
			return nil
		}
	}
	hits := intersectPostings(lists)
	if len(hits) == 0 {
		return nil
	}
	ids, out := s.recs.IDs(), make([]string, len(hits))
	for i, d := range hits {
		out[i] = ids[s.docs[d].rec]
	}
	sort.Strings(out)
	return out
}

// intersectPostings returns the doc numbers on every list, ascending.
// Starting from the shortest list bounds the work by the rarest keyword's
// selectivity; each later list is searched from where the last hit was.
func intersectPostings(lists []*postings) []uint32 {
	if len(lists) == 0 {
		return nil
	}
	slices.SortFunc(lists, func(a, b *postings) int { return int(a.n) - int(b.n) })
	out := make([]uint32, 0, lists[0].n)
	lists[0].each(func(d uint32) { out = append(out, d) })
	for _, list := range lists[1:] {
		sk := seeker{p: list, b: -1}
		n := 0
		for _, d := range out {
			if sk.has(d) {
				out[n] = d
				n++
			}
		}
		out = out[:n]
	}
	return out
}

// Remove implements Index. Because the document's own term list is kept,
// deletion removes every posting without scanning the whole index — the
// secure-deletion-from-inverted-index construction of the paper's ref [10].
func (s *SSE) Remove(id string) {
	rec, ok := s.recs.Find(id)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(rec)
}

// removeLocked drops record number rec's document number from each of its
// terms' posting lists, a term whose list empties together with its token,
// and then the document itself.
func (s *SSE) removeLocked(rec uint32) {
	d, ok := s.docNum(rec)
	if !ok {
		return
	}
	s.eachTerm(s.docs[d], func(t uint32) {
		tm := &s.terms[t]
		if tm.posts.remove(d); tm.posts.n == 0 {
			delete(s.termNum, tm.tok)
			*tm = term{}
		}
	})
	s.docOf[rec] = 0
	s.docs[d] = doc{}
	s.live--
	if dead := len(s.docs) - s.live; dead > s.live/4 {
		s.compactLocked()
	}
}

// isLive reports whether doc number d is its record's document; the caller
// holds s.mu.
func (s *SSE) isLive(d int) bool {
	n, ok := s.docNum(s.docs[d].rec)
	return ok && n == uint32(d)
}

// compactLocked renumbers the live terms and documents densely, keeping
// their order (so posting lists stay ascending), into tables, maps and an
// arena sized by what is live. Its O(postings) cost is paid once per live/5
// removals.
func (s *SSE) compactLocked() {
	terms := s.terms
	renum := make([]uint32, len(terms))
	s.terms = make([]term, 0, len(s.termNum))
	s.termNum = make(map[string]uint32, len(s.termNum))
	for t, tm := range terms {
		if tm.tok != "" {
			renum[t] = uint32(len(s.terms))
			s.termNum[tm.tok] = renum[t]
			// Renumbering never widens a gap, so the old list's bytes, and
			// the room add reserves, hold the new one.
			gaps := make([]byte, 0, len(tm.posts.gaps)+binary.MaxVarintLen32)
			s.terms = append(s.terms, term{tok: tm.tok, posts: postings{gaps: gaps}})
		}
	}
	docs := make([]doc, 0, s.live)
	arena := make([]byte, 0, s.liveBytesLocked())
	for i, dc := range s.docs {
		if !s.isLive(i) {
			continue
		}
		d := uint32(len(docs))
		off := len(arena)
		s.eachTerm(dc, func(t uint32) {
			s.terms[renum[t]].posts.add(d)
			arena = binary.AppendUvarint(arena, uint64(renum[t]))
		})
		s.docOf[dc.rec] = d + 1
		docs = append(docs, doc{off: uint32(off), size: uint32(len(arena) - off), rec: dc.rec})
	}
	s.docs, s.arena = docs, arena
}

// liveBytesLocked is the arena bytes of the live documents' term lists,
// which renumbering never lengthens.
func (s *SSE) liveBytesLocked() int {
	n := 0
	for i, dc := range s.docs {
		if s.isLive(i) {
			n += int(dc.size)
		}
	}
	return n
}

// Len implements Index.
func (s *SSE) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// Snapshot implements Index. Layout:
//
//	magic "MVSX" | u16 version | u32 nTokens
//	  { str token | sealed postings }*     sealed under valueKey, aad=token
//	sealed docs table                       aad="docs"
//
// where tokens are tokenHex spellings in ascending order, a sealed postings
// blob decrypts to u32 n | str docID * n (sorted), and the docs table to
// { str docID | u32 n | str token * n }* (sorted by ID, terms in Tokenize
// order).
func (s *SSE) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b := binary.BigEndian.AppendUint16([]byte(sseMagic), sseVersion)
	b = frame.AppendCount(b, len(s.termNum))
	for _, tok := range sortedKeys(s.termNum) { // raw byte order is hex order
		spelled := tokenHex(tok)
		b = frame.AppendStr(b, spelled)
		sealed, err := vcrypto.Seal(s.valueKey, s.postingsLocked(s.termNum[tok]), []byte(spelled))
		if err != nil {
			return nil, fmt.Errorf("index: sealing postings: %w", err)
		}
		b = frame.AppendBytes(b, sealed)
	}
	byID := make(map[string]uint32, s.live) // ID -> doc number
	for d := range s.docs {
		if s.isLive(d) {
			byID[s.recs.ID(s.docs[d].rec)] = uint32(d)
		}
	}
	docs := appendDocs(nil, sortedKeys(byID),
		func(id string) []uint32 { return s.termsLocked(s.docs[byID[id]]) },
		func(t uint32) string { return tokenHex(s.terms[t].tok) })
	sealedDocs, err := vcrypto.Seal(s.valueKey, docs, []byte("docs"))
	if err != nil {
		return nil, fmt.Errorf("index: sealing docs table: %w", err)
	}
	return frame.AppendBytes(b, sealedDocs), nil
}

// termsLocked is dc's term numbers, in Tokenize order.
func (s *SSE) termsLocked(dc doc) []uint32 {
	var out []uint32
	s.eachTerm(dc, func(t uint32) { out = append(out, t) })
	return out
}

// postingsLocked is the plaintext of term t's sealed postings blob.
func (s *SSE) postingsLocked(t uint32) []byte {
	ids := s.idsLocked(&s.terms[t].posts)
	b := frame.AppendCount(nil, len(ids))
	for _, id := range ids {
		b = frame.AppendStr(b, id)
	}
	return b
}

const (
	sseMagic   = "MVSX"
	sseVersion = 1
)

// LoadSSE reconstructs an SSE index from a snapshot using the same master
// key it was built with. Tampered snapshots fail authenticated decryption.
//
// The docs table is what Remove walks, so the index is built from it, and
// the postings section must then say exactly what the table implies: a
// posting the table lacks would survive its document's secure deletion.
// A malformed token, a repeated token or doc ID, or any disagreement between
// the two halves is ErrCorrupt.
func LoadSSE(master vcrypto.Key, snap []byte) (*SSE, error) {
	return LoadSSEOn(recno.New(), master, snap)
}

// LoadSSEOn is LoadSSE numbering documents in recs.
func LoadSSEOn(recs *recno.Table, master vcrypto.Key, snap []byte) (*SSE, error) {
	s := NewSSEOn(recs, master)
	r := frame.NewReader(snap)
	if err := readPostings(r, nil); err != nil {
		return nil, err
	}
	sealedDocs := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	docsPlain, err := vcrypto.Open(s.valueKey, sealedDocs, []byte("docs"))
	if err != nil {
		return nil, fmt.Errorf("index: opening docs table: %w", err)
	}
	dr := frame.NewReader(docsPlain)
	err = readDocs(dr, func(id string, spelled []string) error {
		rec := recs.Intern(id)
		if _, dup := s.docNum(rec); dup {
			return fmt.Errorf("%w: docs table: doc ID repeated", ErrCorrupt)
		}
		toks := make([]token, len(spelled))
		for i, sp := range spelled {
			var ok bool
			if toks[i], ok = parseTokenHex(sp); !ok {
				return fmt.Errorf("%w: docs table: malformed token", ErrCorrupt)
			}
		}
		if !s.addLocked(rec, toks) {
			return fmt.Errorf("%w: docs table: token repeated within a document", ErrCorrupt)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := dr.Done(); err != nil {
		return nil, fmt.Errorf("%w: docs table: %v", ErrCorrupt, err)
	}
	checked := make([]bool, len(s.terms))
	err = readPostings(frame.NewReader(snap), func(spelled string, sealed []byte) error {
		tok, ok := parseTokenHex(spelled)
		if !ok {
			return fmt.Errorf("%w: postings: malformed token", ErrCorrupt)
		}
		plain, err := vcrypto.Open(s.valueKey, sealed, []byte(spelled))
		if err != nil {
			return fmt.Errorf("index: opening postings for token %.8s…: %w", spelled, err)
		}
		t, ok := s.termNum[string(tok[:])]
		if !ok || checked[t] || !bytes.Equal(plain, s.postingsLocked(t)) {
			return fmt.Errorf("%w: postings for token %.8s… are not what the docs table implies", ErrCorrupt, spelled)
		}
		checked[t] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	if slices.Contains(checked, false) {
		return nil, fmt.Errorf("%w: postings lack a token the docs table has", ErrCorrupt)
	}
	return s, nil
}

// readPostings consumes the header and the postings section, handing each
// entry to each (nil: skip it). A short read is left for the caller's Done.
func readPostings(r *frame.Reader, each func(spelled string, sealed []byte) error) error {
	if err := readHeader(r, sseMagic, sseVersion); err != nil {
		return err
	}
	for i, n := 0, r.Count(8); i < n; i++ { // token and sealed blob: two length prefixes
		spelled, sealed := r.Str(), r.Bytes()
		if r.Err() != nil {
			break
		}
		if each != nil {
			if err := each(spelled, sealed); err != nil {
				return err
			}
		}
	}
	return nil
}

// StorageBytes implements Index.
func (s *SSE) StorageBytes() int {
	snap, err := s.Snapshot()
	if err != nil {
		return 0
	}
	return len(snap)
}
