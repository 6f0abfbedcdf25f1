package index

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"medvault/internal/vcrypto"
)

func testMaster(t *testing.T) vcrypto.Key {
	t.Helper()
	k, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// both returns a plaintext and an SSE index for shared behavioural tests.
func both(t *testing.T) map[string]Index {
	t.Helper()
	return map[string]Index{
		"plaintext": NewPlaintext(),
		"sse":       NewSSE(testMaster(t)),
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("The patient, J. Doe, has Stage-II CANCER (confirmed). cancer markers: CA-125 elevated!")
	want := []string{"patient", "doe", "stage", "ii", "cancer", "confirmed", "markers", "ca", "125", "elevated"}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEdgeCases(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("empty text: %v", got)
	}
	if got := Tokenize("a an the of"); len(got) != 0 {
		t.Errorf("stopwords only: %v", got)
	}
	if got := Tokenize("x y z"); len(got) != 0 {
		t.Errorf("single chars: %v", got)
	}
	got := Tokenize("diabetes diabetes DIABETES")
	if len(got) != 1 || got[0] != "diabetes" {
		t.Errorf("dedup: %v", got)
	}
}

func TestNormalizeQuery(t *testing.T) {
	for in, want := range map[string]string{
		"Cancer":    "cancer",
		" cancer! ": "cancer",
		"CA-125":    "ca-125", // interior punctuation kept; only edges trimmed
	} {
		if got := NormalizeQuery(in); got != want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAddSearch(t *testing.T) {
	for name, idx := range both(t) {
		t.Run(name, func(t *testing.T) {
			idx.Add("p1", "diagnosis hypertension stage two")
			idx.Add("p2", "diagnosis diabetes mellitus")
			idx.Add("p3", "family history hypertension")

			if got := idx.Search("hypertension"); !reflect.DeepEqual(got, []string{"p1", "p3"}) {
				t.Errorf("Search(hypertension) = %v", got)
			}
			if got := idx.Search("diabetes"); !reflect.DeepEqual(got, []string{"p2"}) {
				t.Errorf("Search(diabetes) = %v", got)
			}
			if got := idx.Search("Hypertension"); len(got) != 2 {
				t.Errorf("case-insensitive search failed: %v", got)
			}
			if got := idx.Search("cancer"); len(got) != 0 {
				t.Errorf("Search(cancer) = %v, want empty", got)
			}
			if idx.Len() != 3 {
				t.Errorf("Len = %d, want 3", idx.Len())
			}
		})
	}
}

func TestAddReplacesPostings(t *testing.T) {
	for name, idx := range both(t) {
		t.Run(name, func(t *testing.T) {
			idx.Add("p1", "asthma")
			idx.Add("p1", "migraine") // corrected record: re-index
			if got := idx.Search("asthma"); len(got) != 0 {
				t.Errorf("stale posting survived re-add: %v", got)
			}
			if got := idx.Search("migraine"); !reflect.DeepEqual(got, []string{"p1"}) {
				t.Errorf("Search(migraine) = %v", got)
			}
			if idx.Len() != 1 {
				t.Errorf("Len = %d, want 1", idx.Len())
			}
		})
	}
}

func TestRemoveSecureDeletion(t *testing.T) {
	// The removed ID is long enough that SSE ciphertext never contains it
	// by chance; a two-byte ID matched a random snapshot about once in 500.
	const removed = "patient-removed-0001"
	for name, idx := range both(t) {
		t.Run(name, func(t *testing.T) {
			idx.Add(removed, "oncology cancer treatment")
			idx.Add("p2", "cancer screening")
			idx.Remove(removed)
			if got := idx.Search("cancer"); !reflect.DeepEqual(got, []string{"p2"}) {
				t.Errorf("Search after remove = %v", got)
			}
			if got := idx.Search("oncology"); len(got) != 0 {
				t.Errorf("orphan posting survived: %v", got)
			}
			if idx.Len() != 1 {
				t.Errorf("Len = %d, want 1", idx.Len())
			}
			// Removing twice or removing unknown IDs is harmless.
			idx.Remove(removed)
			idx.Remove("ghost")

			// The deleted document must leave no trace in the stored form.
			snap, err := idx.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(snap, []byte(removed)) {
				t.Error("removed doc ID still present in snapshot")
			}
			if name == "sse" && bytes.Contains(snap, []byte("oncology")) {
				t.Error("keyword visible in SSE snapshot")
			}
		})
	}
}

func TestSSESnapshotLeaksNoKeywordsOrIDs(t *testing.T) {
	master := testMaster(t)
	s := NewSSE(master)
	s.Add("patient-alice-007", "metastatic cancer oncology chemotherapy")
	s.Add("patient-bob-900", "hiv antiretroviral therapy")
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, secret := range []string{"cancer", "oncology", "hiv", "antiretroviral", "patient-alice-007", "patient-bob-900"} {
		if bytes.Contains(snap, []byte(secret)) {
			t.Errorf("SSE snapshot leaks %q", secret)
		}
	}
	// The plaintext baseline, by contrast, leaks everything.
	p := NewPlaintext()
	p.Add("patient-alice-007", "metastatic cancer oncology chemotherapy")
	psnap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(psnap, []byte("cancer")) || !bytes.Contains(psnap, []byte("patient-alice-007")) {
		t.Error("plaintext baseline unexpectedly hides its contents")
	}
}

func TestSSESnapshotRoundTrip(t *testing.T) {
	master := testMaster(t)
	s := NewSSE(master)
	for i := 0; i < 30; i++ {
		s.Add(fmt.Sprintf("doc-%d", i), fmt.Sprintf("term%d shared common-%d", i%7, i%3))
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re, err := LoadSSE(master, snap)
	if err != nil {
		t.Fatalf("LoadSSE: %v", err)
	}
	if re.Len() != s.Len() {
		t.Errorf("Len %d != %d", re.Len(), s.Len())
	}
	for _, kw := range []string{"term0", "term6", "shared", "common-2"} {
		if !reflect.DeepEqual(re.Search(kw), s.Search(kw)) {
			t.Errorf("Search(%s) differs after round trip", kw)
		}
	}
	// Removal still works on the restored index (docs table survived).
	re.Remove("doc-0")
	if ids := re.Search("term0"); len(ids) > 0 && ids[0] == "doc-0" {
		t.Error("Remove after reload did not delete postings")
	}
}

func TestLoadSSEWrongKey(t *testing.T) {
	s := NewSSE(testMaster(t))
	s.Add("d", "confidential")
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSSE(testMaster(t), snap); !errors.Is(err, vcrypto.ErrDecrypt) {
		t.Errorf("wrong key load: %v", err)
	}
}

func TestLoadSSETamperedSnapshot(t *testing.T) {
	master := testMaster(t)
	s := NewSSE(master)
	s.Add("d1", "alpha beta")
	s.Add("d2", "beta gamma")
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte near the end (inside sealed data).
	bad := append([]byte(nil), snap...)
	bad[len(bad)-3] ^= 1
	if _, err := LoadSSE(master, bad); err == nil {
		t.Error("tampered snapshot accepted")
	}
	if _, err := LoadSSE(master, snap[:10]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated snapshot: %v", err)
	}
	if _, err := LoadSSE(master, []byte("XXXXGARBAGE")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage snapshot: %v", err)
	}
}

func TestPlaintextSnapshotRoundTrip(t *testing.T) {
	p := NewPlaintext()
	for i := 0; i < 20; i++ {
		p.Add(fmt.Sprintf("doc-%d", i), fmt.Sprintf("kw%d shared", i%5))
	}
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re, err := LoadPlaintext(snap)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != p.Len() {
		t.Errorf("Len mismatch")
	}
	for _, kw := range []string{"kw0", "kw4", "shared"} {
		if !reflect.DeepEqual(re.Search(kw), p.Search(kw)) {
			t.Errorf("Search(%s) differs", kw)
		}
	}
	if _, err := LoadPlaintext([]byte("nope")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage accepted: %v", err)
	}
}

func TestPlaintextTerms(t *testing.T) {
	p := NewPlaintext()
	p.Add("d", "zebra alpha")
	got := p.Terms()
	if !reflect.DeepEqual(got, []string{"alpha", "zebra"}) {
		t.Errorf("Terms = %v", got)
	}
}

func TestSSEDeterministicTokens(t *testing.T) {
	master := testMaster(t)
	a, b := NewSSE(master), NewSSE(master)
	if a.token("cancer") != b.token("cancer") {
		t.Error("same key produced different tokens")
	}
	if a.token("cancer") == a.token("cancers") {
		t.Error("distinct words share a token")
	}
	other := NewSSE(testMaster(t))
	if a.token("cancer") == other.token("cancer") {
		t.Error("different keys produced the same token")
	}
}

func TestIndexEquivalenceProperty(t *testing.T) {
	// The SSE index must answer every query exactly like the plaintext one.
	master := testMaster(t)
	f := func(docWords [][2]string, query string) bool {
		p, s := NewPlaintext(), NewSSE(master)
		for i, dw := range docWords {
			id := fmt.Sprintf("doc-%d", i%5) // collisions exercise replacement
			p.Add(id, dw[0]+" "+dw[1])
			s.Add(id, dw[0]+" "+dw[1])
		}
		return reflect.DeepEqual(p.Search(query), s.Search(query)) && p.Len() == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSearchAll(t *testing.T) {
	for name, idx := range both(t) {
		t.Run(name, func(t *testing.T) {
			idx.Add("p1", "hypertension diabetes")
			idx.Add("p2", "hypertension asthma")
			idx.Add("p3", "diabetes asthma")
			if got := idx.SearchAll("hypertension", "diabetes"); !reflect.DeepEqual(got, []string{"p1"}) {
				t.Errorf("AND query = %v", got)
			}
			if got := idx.SearchAll("hypertension"); len(got) != 2 {
				t.Errorf("single-keyword AND = %v", got)
			}
			if got := idx.SearchAll("hypertension", "zzz"); len(got) != 0 {
				t.Errorf("missing keyword AND = %v", got)
			}
			if got := idx.SearchAll(); len(got) != 0 {
				t.Errorf("empty AND = %v", got)
			}
			if got := idx.SearchAll("Hypertension", "ASTHMA"); !reflect.DeepEqual(got, []string{"p2"}) {
				t.Errorf("case-insensitive AND = %v", got)
			}
		})
	}
}

func TestSearchAllEquivalenceProperty(t *testing.T) {
	master := testMaster(t)
	f := func(pairs [][2]string, q1, q2 string) bool {
		p, s := NewPlaintext(), NewSSE(master)
		for i, pr := range pairs {
			id := fmt.Sprintf("d%d", i%4)
			p.Add(id, pr[0]+" "+pr[1])
			s.Add(id, pr[0]+" "+pr[1])
		}
		return reflect.DeepEqual(p.SearchAll(q1, q2), s.SearchAll(q1, q2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStorageBytesNonzero(t *testing.T) {
	for name, idx := range both(t) {
		idx.Add("d", "keyword content here")
		if idx.StorageBytes() <= 0 {
			t.Errorf("%s: StorageBytes = %d", name, idx.StorageBytes())
		}
	}
}
