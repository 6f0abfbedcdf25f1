package index

import (
	"reflect"
	"testing"

	"medvault/internal/vcrypto"
)

// FuzzLoadSSE throws arbitrary bytes at the encrypted-index loader: it must
// reject garbage without panicking. (Valid snapshots require authenticated
// decryption, so the fuzzer exercising the framing paths is the point.) A
// snapshot that loads must survive its own round trip unchanged.
func FuzzLoadSSE(f *testing.F) {
	master := vcrypto.DeriveKey(vcrypto.Key{}, "fuzz")
	s := NewSSE(master)
	s.Add("d1", "hypertension asthma")
	snap, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add([]byte{})
	f.Add([]byte("MVSX"))
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := LoadSSE(master, data)
		if err != nil {
			return
		}
		again, err := idx.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		re, err := LoadSSE(master, again)
		if err != nil {
			t.Fatalf("re-snapshot of a loaded snapshot does not load: %v", err)
		}
		if re.Len() != idx.Len() {
			t.Errorf("Len %d after round trip, %d before", re.Len(), idx.Len())
		}
		for _, kw := range []string{"hypertension", "asthma", "absent"} {
			if got, want := re.Search(kw), idx.Search(kw); !reflect.DeepEqual(got, want) {
				t.Errorf("Search(%q) = %v after round trip, %v before", kw, got, want)
			}
		}
	})
}

// FuzzLoadPlaintext does the same for the baseline index loader.
func FuzzLoadPlaintext(f *testing.F) {
	p := NewPlaintext()
	p.Add("d1", "hypertension asthma")
	snap, err := p.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := LoadPlaintext(data)
		if err != nil {
			return
		}
		idx.Search("hypertension")
	})
}
