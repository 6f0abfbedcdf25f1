package wal

import (
	"bytes"
	"fmt"
	"testing"

	"medvault/internal/faultfs"
)

// walBytes builds a valid log image containing the given entries, returned
// as raw file bytes — seed material for the fuzzer.
func walBytes(t interface{ Fatal(...any) }, entries ...[]byte) []byte {
	mem := faultfs.NewMem()
	l, err := OpenFS(mem, "wal/meta.wal", func(Entry) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := mem.ReadFile("wal/meta.wal")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzOpen feeds arbitrary bytes to the WAL recovery path: whatever is on
// disk — torn tails, bit flips, garbage — Open must never panic, and when
// it succeeds the log must be immediately usable: the entries it replayed
// are exactly the entries a subsequent reopen replays, and a fresh append
// lands after them with the right sequence number.
func FuzzOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add(walBytes(f, []byte("hello")))
	full := walBytes(f, []byte("first entry"), []byte("second entry"), bytes.Repeat([]byte{0xAB}, 100))
	f.Add(full)
	f.Add(full[:len(full)-3])  // torn mid-CRC
	f.Add(full[:len(full)-40]) // torn mid-payload
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	for _, seed := range layoutSeeds() {
		f.Add(seed.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		mem := faultfs.NewMem()
		if err := mem.MkdirAll("wal", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := mem.WriteFile("wal/meta.wal", data, 0o600); err != nil {
			t.Fatal(err)
		}
		var first []Entry
		l, err := OpenFS(mem, "wal/meta.wal", func(e Entry) error {
			first = append(first, Entry{Seq: e.Seq, Data: append([]byte(nil), e.Data...)})
			return nil
		})
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		for i, e := range first {
			if e.Seq != uint64(i) {
				t.Fatalf("replayed entry %d has seq %d", i, e.Seq)
			}
		}
		seq, err := l.Append([]byte("post-recovery append"))
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if want := uint64(len(first)); seq != want {
			t.Fatalf("post-recovery append got seq %d, want %d", seq, want)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		var second []Entry
		l2, err := OpenFS(mem, "wal/meta.wal", func(e Entry) error {
			second = append(second, Entry{Seq: e.Seq, Data: append([]byte(nil), e.Data...)})
			return nil
		})
		if err != nil {
			t.Fatalf("reopen after recovery+append: %v", err)
		}
		defer l2.Close()
		if len(second) != len(first)+1 {
			t.Fatalf("reopen replayed %d entries, want %d", len(second), len(first)+1)
		}
		for i, e := range first {
			if e.Seq != second[i].Seq || !bytes.Equal(e.Data, second[i].Data) {
				t.Fatalf("entry %d changed across reopen", i)
			}
		}
	})
}

// FuzzEntryFraming fuzzes the frame decoder directly through a crafted
// single-entry image, checking the CRC actually gates what replay sees:
// any accepted entry must carry the exact bytes that were framed.
func FuzzEntryFraming(f *testing.F) {
	f.Add(uint64(1), []byte("payload"), false)
	f.Add(uint64(7), []byte{}, false)
	f.Add(uint64(2), bytes.Repeat([]byte{0x00}, 300), true)
	f.Fuzz(func(t *testing.T, seq uint64, payload []byte, corrupt bool) {
		if len(payload) == 0 {
			return // Enqueue refuses it (TestEmptyPayloadRefused)
		}
		image := walBytes(t, payload)
		if corrupt && len(image) > 0 {
			image[len(image)-1] ^= 0x80
		}
		mem := faultfs.NewMem()
		if err := mem.WriteFile(fmt.Sprintf("w-%d.wal", seq%3), image, 0o600); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		l, err := OpenFS(mem, fmt.Sprintf("w-%d.wal", seq%3), func(e Entry) error {
			got = append(got, append([]byte(nil), e.Data...))
			return nil
		})
		if err != nil {
			return
		}
		defer l.Close()
		for _, g := range got {
			if !bytes.Equal(g, payload) {
				t.Fatalf("replay returned bytes that were never framed")
			}
		}
	})
}
