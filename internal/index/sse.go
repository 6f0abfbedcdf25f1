package index

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"medvault/internal/frame"
	"medvault/internal/obs"
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
type SSE struct {
	mu       sync.RWMutex
	tokenKey vcrypto.Key
	valueKey vcrypto.Key
	postings map[string]map[string]bool // token(hex) -> set of doc IDs (in-memory only)
	docs     map[string][]string        // doc ID -> its tokens (for secure deletion)
}

var _ Index = (*SSE)(nil)

// NewSSE returns an empty SSE index keyed from master. Token and value keys
// are domain-separated derivations, so the same master secret can safely
// drive the envelope layer elsewhere.
func NewSSE(master vcrypto.Key) *SSE {
	return &SSE{
		tokenKey: vcrypto.DeriveKey(master, "index/token"),
		valueKey: vcrypto.DeriveKey(master, "index/value"),
		postings: make(map[string]map[string]bool),
		docs:     make(map[string][]string),
	}
}

// token maps a normalized keyword to its pseudorandom search token. The
// token key is immutable, so tokenization needs no lock — callers compute
// tokens before entering the mutex, keeping the HMAC work (the dominant
// per-keyword cost) out of the serialized section under concurrency.
func (s *SSE) token(word string) string {
	return hex.EncodeToString(vcrypto.MAC(s.tokenKey, []byte(word)))
}

// Add implements Index.
func (s *SSE) Add(id, text string) {
	defer metAddSeconds.ObserveSince(time.Now())
	words := Tokenize(text)
	toks := make([]string, 0, len(words))
	for _, w := range words {
		toks = append(toks, s.token(w))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(id)
	for _, tok := range toks {
		set, ok := s.postings[tok]
		if !ok {
			set = make(map[string]bool)
			s.postings[tok] = set
		}
		set[id] = true
	}
	s.docs[id] = toks
}

// Search implements Index.
func (s *SSE) Search(keyword string) []string {
	defer metSearchSeconds.ObserveSince(time.Now())
	tok := s.token(NormalizeQuery(keyword))
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := s.postings[tok]
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SearchAll implements Index: conjunctive queries cost one HMAC per keyword
// plus a set intersection, with the same leakage profile as single-keyword
// search (the server learns which tokens co-occur in the query, nothing
// lexical).
func (s *SSE) SearchAll(keywords ...string) []string {
	defer metSearchSeconds.ObserveSince(time.Now())
	toks := make([]string, 0, len(keywords))
	for _, kw := range keywords {
		toks = append(toks, s.token(NormalizeQuery(kw)))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sets := make([]map[string]bool, 0, len(toks))
	for _, tok := range toks {
		set := s.postings[tok]
		if len(set) == 0 {
			return nil
		}
		sets = append(sets, set)
	}
	return intersect(sets)
}

// AddCtx is Add recording an "index.add" span on the trace carried by ctx.
func (s *SSE) AddCtx(ctx context.Context, id, text string) {
	_, sp := obs.StartSpan(ctx, "index.add")
	s.Add(id, text)
	sp.End(nil)
}

// SearchCtx is Search recording an "index.search" span. The keyword is
// deliberately NOT attached to the span: traces are an unauthenticated debug
// surface, and query terms are PHI-adjacent exactly like the SSE threat
// model says.
func (s *SSE) SearchCtx(ctx context.Context, keyword string) []string {
	_, sp := obs.StartSpan(ctx, "index.search")
	out := s.Search(keyword)
	sp.SetAttr("hits", strconv.Itoa(len(out)))
	sp.End(nil)
	return out
}

// SearchAllCtx is SearchAll recording an "index.search" span.
func (s *SSE) SearchAllCtx(ctx context.Context, keywords ...string) []string {
	_, sp := obs.StartSpan(ctx, "index.search")
	sp.SetAttr("keywords", strconv.Itoa(len(keywords)))
	out := s.SearchAll(keywords...)
	sp.SetAttr("hits", strconv.Itoa(len(out)))
	sp.End(nil)
	return out
}

// RemoveCtx is Remove recording an "index.remove" span.
func (s *SSE) RemoveCtx(ctx context.Context, id string) {
	_, sp := obs.StartSpan(ctx, "index.remove")
	s.Remove(id)
	sp.End(nil)
}

// Remove implements Index. Because the document's own token list is kept,
// deletion removes every posting without scanning the whole index — the
// secure-deletion-from-inverted-index construction of the paper's ref [10].
func (s *SSE) Remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(id)
}

func (s *SSE) removeLocked(id string) {
	for _, tok := range s.docs[id] {
		if set := s.postings[tok]; set != nil {
			delete(set, id)
			if len(set) == 0 {
				delete(s.postings, tok)
			}
		}
	}
	delete(s.docs, id)
}

// Len implements Index.
func (s *SSE) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// Snapshot implements Index. Layout:
//
//	magic "MVSX" | u16 version | u32 nTokens
//	  { str token | sealed postings }*     sealed under valueKey, aad=token
//	sealed docs table                       aad="docs"
//
// where a sealed postings blob decrypts to str* doc IDs, and the docs table
// decrypts to { str docID | u32 n | str token * n }*.
func (s *SSE) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b := binary.BigEndian.AppendUint16([]byte(sseMagic), sseVersion)
	b = frame.AppendCount(b, len(s.postings))
	for _, tok := range sortedKeys(s.postings) {
		b = frame.AppendStr(b, tok)
		ids := sortedKeys(s.postings[tok])
		plain := frame.AppendCount(nil, len(ids))
		for _, id := range ids {
			plain = frame.AppendStr(plain, id)
		}
		sealed, err := vcrypto.Seal(s.valueKey, plain, []byte(tok))
		if err != nil {
			return nil, fmt.Errorf("index: sealing postings: %w", err)
		}
		b = frame.AppendBytes(b, sealed)
	}
	sealedDocs, err := vcrypto.Seal(s.valueKey, appendDocs(nil, s.docs), []byte("docs"))
	if err != nil {
		return nil, fmt.Errorf("index: sealing docs table: %w", err)
	}
	return frame.AppendBytes(b, sealedDocs), nil
}

const (
	sseMagic   = "MVSX"
	sseVersion = 1
)

// LoadSSE reconstructs an SSE index from a snapshot using the same master
// key it was built with. Tampered snapshots fail authenticated decryption.
func LoadSSE(master vcrypto.Key, snap []byte) (*SSE, error) {
	s := NewSSE(master)
	r := frame.NewReader(snap)
	if err := readHeader(r, sseMagic, sseVersion); err != nil {
		return nil, err
	}
	for i, n := 0, r.Count(8); i < n; i++ { // token and sealed blob: two length prefixes
		tok, sealed := r.Str(), r.Bytes()
		if r.Err() != nil {
			break // reported by Done below, not as a decryption failure of a zero blob
		}
		plain, err := vcrypto.Open(s.valueKey, sealed, []byte(tok))
		if err != nil {
			return nil, fmt.Errorf("index: opening postings for token %.8s…: %w", tok, err)
		}
		pr := frame.NewReader(plain)
		nIDs := pr.Count(4)
		set := make(map[string]bool, nIDs)
		for j := 0; j < nIDs; j++ {
			set[pr.Str()] = true
		}
		if err := pr.Done(); err != nil {
			return nil, fmt.Errorf("%w: postings: %v", ErrCorrupt, err)
		}
		s.postings[tok] = set
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
	s.docs = readDocs(dr)
	if err := dr.Done(); err != nil {
		return nil, fmt.Errorf("%w: docs table: %v", ErrCorrupt, err)
	}
	return s, nil
}

// StorageBytes implements Index.
func (s *SSE) StorageBytes() int {
	snap, err := s.Snapshot()
	if err != nil {
		return 0
	}
	return len(snap)
}
