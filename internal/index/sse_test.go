package index

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"medvault/internal/frame"
	"medvault/internal/recno"
	"medvault/internal/vcrypto"
)

// TestSSEResidentBytesPerPosting pins what the index keeps in RAM per
// (document, keyword) pair, and that churn leaves nothing behind: after
// corrections and removals the index costs what a fresh one of the
// survivors does. Record numbers are never recycled, so the fresh index
// numbers every ID the churned one has seen, as a shard's shared table would.
func TestSSEResidentBytesPerPosting(t *testing.T) {
	const docs, words, vocab, budget = 20_000, 25, 3_000, 8
	rng := rand.New(rand.NewSource(1))
	ids, texts := make([]string, docs), make([]string, docs)
	pairs := 0
	for i := range texts {
		var b strings.Builder
		for j := 0; j < words; j++ {
			// Squaring a uniform draw skews it toward low word numbers: a
			// few words are in many documents, most in few.
			fmt.Fprintf(&b, "term%d ", int(vocab*math.Pow(rng.Float64(), 2)))
		}
		ids[i], texts[i] = fmt.Sprintf("patient-%05d-enc-0", i), b.String()
		pairs += len(Tokenize(texts[i]))
	}
	// heap is the least heap in use over three readings, each after two
	// collections: another goroutine's live bytes can land in one reading,
	// while the structure under test is live in all three.
	heap := func() uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			least = min(least, ms.HeapAlloc)
		}
		return least
	}
	master := testMaster(t)

	before := heap()
	s := NewSSE(master)
	for i := range ids {
		s.Add(ids[i], texts[i])
	}
	per := float64(int64(heap())-int64(before)) / float64(pairs)
	t.Logf("resident: %.1f B/posting over %d documents, %d postings", per, docs, pairs)
	if per > budget {
		t.Errorf("index keeps %.1f B/posting resident, budget is %d", per, budget)
	}

	for round := 0; round < 3; round++ {
		for i := range ids {
			s.Add(ids[i], texts[(i+round+1)%docs])
		}
	}
	for i := 0; i < docs; i += 2 {
		s.Remove(ids[i])
	}
	churned := int64(heap()) - int64(before)
	runtime.KeepAlive(s)
	s = nil

	before = heap()
	recs := recno.New()
	for _, id := range ids {
		recs.Intern(id)
	}
	fresh := NewSSEOn(recs, master)
	for i := 1; i < docs; i += 2 {
		fresh.Add(ids[i], texts[(i+3)%docs])
	}
	freshBytes := int64(heap()) - int64(before)
	runtime.KeepAlive(fresh)
	runtime.KeepAlive(ids) // else they die during the fresh build, which then reads 0.8 MB short
	runtime.KeepAlive(texts)
	t.Logf("after churn: %d B resident, a fresh index of the survivors %d B", churned, freshBytes)
	if float64(churned) > 1.25*float64(freshBytes) {
		t.Errorf("churned index keeps %d B, more than 1.25x the %d B of a fresh one", churned, freshBytes)
	}
}

// TestSSEMatchesPlaintextModel drives the SSE index and the plaintext one
// with the same seeded operations: adds, corrections (re-adds), removals
// and queries, some for absent words. Every answer must be identical, and
// a snapshot reload at random points must change nothing.
func TestSSEMatchesPlaintextModel(t *testing.T) {
	vocab := []string{"asthma", "cancer", "diabetes", "hypertension", "migraine", "oncology", "renal", "sepsis", "stroke", "ulcer"}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		master := testMaster(t)
		s, p := NewSSE(master), NewPlaintext()
		query := func() string {
			switch rng.Intn(6) {
			case 0:
				return "absent"
			case 1:
				return " " + strings.ToUpper(vocab[rng.Intn(len(vocab))]) + "!"
			}
			return vocab[rng.Intn(len(vocab))]
		}
		for step := 0; step < 3000; step++ {
			id := fmt.Sprintf("rec-%d", rng.Intn(16))
			switch op := rng.Intn(20); {
			case op < 8:
				words := make([]string, rng.Intn(6))
				for i := range words {
					words[i] = vocab[rng.Intn(len(vocab))]
				}
				text := strings.Join(words, " ")
				s.Add(id, text)
				p.Add(id, text)
			case op < 11:
				s.Remove(id)
				p.Remove(id)
			case op < 15:
				q := query()
				if got, want := s.Search(q), p.Search(q); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Search(%q) = %#v, plaintext %#v", seed, step, q, got, want)
				}
			case op < 19:
				qs := make([]string, 1+rng.Intn(3))
				for i := range qs {
					qs[i] = query()
				}
				if got, want := s.SearchAll(qs...), p.SearchAll(qs...); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: SearchAll(%q) = %#v, plaintext %#v", seed, step, qs, got, want)
				}
			default:
				snap, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if s, err = LoadSSE(master, snap); err != nil {
					t.Fatalf("seed %d step %d: reload: %v", seed, step, err)
				}
				for _, w := range vocab {
					if got, want := s.Search(w), p.Search(w); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d: after reload Search(%q) = %v, plaintext %v", seed, step, w, got, want)
					}
				}
			}
			if s.Len() != p.Len() {
				t.Fatalf("seed %d step %d: Len %d, plaintext %d", seed, step, s.Len(), p.Len())
			}
		}
	}
}

// TestSSEConcurrentAddRemoveSearch is for the race detector. Afterwards the
// index must still snapshot into a consistent, loadable whole.
func TestSSEConcurrentAddRemoveSearch(t *testing.T) {
	master := testMaster(t)
	s := NewSSE(master)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				id := fmt.Sprintf("rec-%d", (i*7+w)%24)
				switch (i + w) % 4 {
				case 0:
					s.Add(id, fmt.Sprintf("cancer oncology stage%d", i%5))
				case 1:
					s.Remove(id)
				case 2:
					s.Search("cancer")
				default:
					s.SearchAll("cancer", fmt.Sprintf("stage%d", i%5))
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(s.Search("cancer")); got != s.Len() {
		t.Errorf("Search(cancer) has %d hits, index holds %d documents that all say it", got, s.Len())
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSSE(master, snap); err != nil {
		t.Errorf("snapshot after concurrent use does not load: %v", err)
	}
}

// sseLayout is an SSE snapshot opened: what its sealed blobs say, in order.
type sseLayout struct {
	postings []ssePosting
	docs     []sseDoc
}

type ssePosting struct {
	tok string
	ids []string
}

type sseDoc struct {
	id   string
	toks []string
}

// parentLayout is the snapshot content the MVSX v1 layout implies for docs
// (ID -> text), computed directly from its definition: hex HMAC tokens in
// byte order, each with its sorted doc IDs; the docs table sorted by ID,
// every document's tokens in Tokenize order.
func parentLayout(master vcrypto.Key, docs map[string]string) sseLayout {
	tokenKey := vcrypto.DeriveKey(master, "index/token")
	var l sseLayout
	postings := make(map[string][]string)
	for _, id := range sortedKeys(docs) {
		d := sseDoc{id: id, toks: []string{}}
		for _, w := range Tokenize(docs[id]) {
			tok := hex.EncodeToString(vcrypto.MAC(tokenKey, []byte(w)))
			d.toks = append(d.toks, tok)
			postings[tok] = append(postings[tok], id)
		}
		l.docs = append(l.docs, d)
	}
	for _, tok := range sortedKeys(postings) {
		l.postings = append(l.postings, ssePosting{tok: tok, ids: postings[tok]})
	}
	return l
}

// openLayout decodes an SSE snapshot's framing and opens every sealed blob.
func openLayout(t *testing.T, master vcrypto.Key, snap []byte) sseLayout {
	t.Helper()
	valueKey := vcrypto.DeriveKey(master, "index/value")
	open := func(sealed []byte, aad string) *frame.Reader {
		plain, err := vcrypto.Open(valueKey, sealed, []byte(aad))
		if err != nil {
			t.Fatalf("opening blob %.8s: %v", aad, err)
		}
		return frame.NewReader(plain)
	}
	var l sseLayout
	r := frame.NewReader(snap)
	if !r.Magic(sseMagic) || r.U16() != sseVersion {
		t.Fatal("bad header")
	}
	for i, n := 0, int(r.U32()); i < n; i++ {
		p := ssePosting{tok: r.Str(), ids: []string{}}
		pr := open(r.Bytes(), p.tok)
		for j, m := 0, int(pr.U32()); j < m; j++ {
			p.ids = append(p.ids, pr.Str())
		}
		if err := pr.Done(); err != nil {
			t.Fatal(err)
		}
		l.postings = append(l.postings, p)
	}
	dr := open(r.Bytes(), "docs")
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for i, n := 0, int(dr.U32()); i < n; i++ {
		d := sseDoc{id: dr.Str(), toks: []string{}}
		for j, m := 0, int(dr.U32()); j < m; j++ {
			d.toks = append(d.toks, dr.Str())
		}
		l.docs = append(l.docs, d)
	}
	if err := dr.Done(); err != nil {
		t.Fatal(err)
	}
	return l
}

// sealLayout writes l as an SSE snapshot under master, whatever it says.
func sealLayout(t *testing.T, master vcrypto.Key, l sseLayout) []byte {
	t.Helper()
	valueKey := vcrypto.DeriveKey(master, "index/value")
	seal := func(b []byte, plain []byte, aad string) []byte {
		sealed, err := vcrypto.Seal(valueKey, plain, []byte(aad))
		if err != nil {
			t.Fatal(err)
		}
		return frame.AppendBytes(b, sealed)
	}
	b := binary.BigEndian.AppendUint16([]byte(sseMagic), sseVersion)
	b = frame.AppendCount(b, len(l.postings))
	for _, p := range l.postings {
		plain := frame.AppendCount(nil, len(p.ids))
		for _, id := range p.ids {
			plain = frame.AppendStr(plain, id)
		}
		b = seal(frame.AppendStr(b, p.tok), plain, p.tok)
	}
	docs := frame.AppendCount(nil, len(l.docs))
	for _, d := range l.docs {
		docs = frame.AppendCount(frame.AppendStr(docs, d.id), len(d.toks))
		for _, tok := range d.toks {
			docs = frame.AppendStr(docs, tok)
		}
	}
	return seal(b, docs, "docs")
}

// TestSSESnapshotPlaintextIsTheParentLayout opens the sealed blobs of fresh
// snapshots: their plaintext must be exactly what the MVSX v1 layout
// implies, checked first against the golden vector's own blobs.
func TestSSESnapshotPlaintextIsTheParentLayout(t *testing.T) {
	golden, _ := hex.DecodeString(goldenSSESnap)
	goldenText := map[string]string{"doc-1": "hypertension follow up", "doc-2": "asthma hypertension"}
	if got, want := openLayout(t, goldenSSEKey, golden), parentLayout(goldenSSEKey, goldenText); !reflect.DeepEqual(got, want) {
		t.Fatalf("golden snapshot opens to\n%+v\nthe layout definition says\n%+v", got, want)
	}

	rng := rand.New(rand.NewSource(7))
	s, live := NewSSE(goldenSSEKey), make(map[string]string)
	for i := 0; i < 400; i++ {
		id := fmt.Sprintf("doc-%d", rng.Intn(60))
		if rng.Intn(4) == 0 {
			s.Remove(id)
			delete(live, id)
			continue
		}
		text := fmt.Sprintf("visit w%d w%d w%d note", rng.Intn(30), rng.Intn(30), rng.Intn(30))
		s.Add(id, text)
		live[id] = text
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := openLayout(t, goldenSSEKey, snap), parentLayout(goldenSSEKey, live); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot opens to\n%+v\nthe layout definition says\n%+v", got, want)
	}
}

// TestLoadSSERejectsInconsistentSnapshots seals snapshots whose fields are
// well-framed and authentic but inconsistent. The docs table is what
// Remove walks; a posting it lacks would answer queries after its
// document's secure deletion, so every disagreement is ErrCorrupt.
func TestLoadSSERejectsInconsistentSnapshots(t *testing.T) {
	master := testMaster(t)
	docs := map[string]string{"rec-a": "asthma cancer", "rec-b": "cancer diabetes", "rec-c": "diabetes"}
	good := parentLayout(master, docs)
	if s, err := LoadSSE(master, sealLayout(t, master, good)); err != nil || !reflect.DeepEqual(s.Search("cancer"), []string{"rec-a", "rec-b"}) {
		t.Fatalf("the consistent layout does not load: %v", err)
	}
	clone := func() sseLayout {
		var l sseLayout
		for _, p := range good.postings {
			l.postings = append(l.postings, ssePosting{p.tok, append([]string(nil), p.ids...)})
		}
		for _, d := range good.docs {
			l.docs = append(l.docs, sseDoc{d.id, append([]string(nil), d.toks...)})
		}
		return l
	}
	// tokenOf is the postings entry of a word.
	tokenOf := func(word string) int {
		tok := hex.EncodeToString(vcrypto.MAC(vcrypto.DeriveKey(master, "index/token"), []byte(word)))
		return sort.Search(len(good.postings), func(i int) bool { return good.postings[i].tok >= tok })
	}
	for name, mutate := range map[string]func(l *sseLayout){
		"uppercase token": func(l *sseLayout) { l.postings[0].tok = strings.ToUpper(l.postings[0].tok) },
		"short token":     func(l *sseLayout) { l.postings[0].tok = l.postings[0].tok[:62] },
		"non-hex token":   func(l *sseLayout) { l.postings[0].tok = "zz" + l.postings[0].tok[2:] },
		"docs-table token not hex": func(l *sseLayout) {
			l.docs[2].toks[0] = strings.Repeat("g", 64)
		},
		"duplicate token": func(l *sseLayout) { l.postings = append(l.postings, l.postings[0]) },
		"duplicate doc ID": func(l *sseLayout) {
			l.docs = append(l.docs, l.docs[2])
		},
		"token repeated in a document": func(l *sseLayout) {
			l.docs[2].toks = append(l.docs[2].toks, l.docs[2].toks[0])
		},
		"posting the docs table lacks": func(l *sseLayout) {
			p := &l.postings[tokenOf("asthma")]
			p.ids = append(p.ids, "rec-c") // rec-c's docs entry says only diabetes
		},
		"posting missing": func(l *sseLayout) {
			p := &l.postings[tokenOf("cancer")]
			p.ids = p.ids[:1]
		},
		"posting listed twice": func(l *sseLayout) {
			p := &l.postings[tokenOf("diabetes")]
			p.ids[0] = p.ids[1]
		},
		"posting for an unknown document": func(l *sseLayout) {
			p := &l.postings[tokenOf("diabetes")]
			p.ids[0] = "rec-z"
		},
		"token in no document": func(l *sseLayout) {
			l.docs[0].toks = l.docs[0].toks[1:] // rec-a keeps cancer, loses asthma
		},
		"token missing from postings": func(l *sseLayout) {
			l.postings = append(l.postings[:tokenOf("asthma")], l.postings[tokenOf("asthma")+1:]...)
		},
	} {
		l := clone()
		mutate(&l)
		if _, err := LoadSSE(master, sealLayout(t, master, l)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: LoadSSE = %v, want ErrCorrupt", name, err)
		}
	}
}
