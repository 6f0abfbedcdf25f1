package index

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// TestPostingsMatchModel drives a posting list and a sorted []uint32 with
// the same appends and deletions, gaps past a uvarint's first byte and
// lists of many blocks included: after every step the list must give back
// the model's numbers, its count and last number must follow them, its
// blocks must be non-empty and their bases ascending, and a seeker must find
// exactly the model's numbers among ascending probes.
func TestPostingsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 20; round++ {
		var p postings
		var model []uint32
		next := uint32(rng.Intn(3))
		for step := 0; step < 1000; step++ {
			if len(model) > 0 && rng.Intn(3) == 0 {
				d := model[rng.Intn(len(model))]
				if !p.remove(d) {
					t.Fatalf("round %d: remove(%d) of a listed number reported false", round, d)
				}
				i, _ := slices.BinarySearch(model, d)
				model = slices.Delete(model, i, i+1)
				if p.remove(d) {
					t.Fatalf("round %d: remove(%d) twice reported true", round, d)
				}
			} else {
				if rng.Intn(8) == 0 {
					next += uint32(rng.Intn(100_000)) // a gap of two or three bytes
				}
				p.add(next)
				model = append(model, next)
				next += 1 + uint32(rng.Intn(4))
			}
			checkPostings(t, &p, model)
			if len(model) == 0 {
				break
			}
		}
	}
}

func checkPostings(t *testing.T, p *postings, model []uint32) {
	t.Helper()
	var got []uint32
	p.each(func(d uint32) { got = append(got, d) })
	if !slices.Equal(got, model) {
		t.Fatalf("list gives %v, want %v", got, model)
	}
	if int(p.n) != len(model) || len(model) > 0 && p.last != model[len(model)-1] {
		t.Fatalf("list of %d (last %d), model has %d", p.n, p.last, len(model))
	}
	// Decoding each block from its skip alone gives the list, block by
	// block, and each base is the number before its block.
	var blocks []uint32
	for b, sk := range p.skips {
		if b > 0 && (len(blocks) == 0 || sk.base != blocks[len(blocks)-1]) {
			t.Fatalf("block %d's base %d is not the number before it", b, sk.base)
		}
		if int(sk.off) >= p.end(b) {
			t.Fatalf("block %d of %d is empty", b, len(p.skips))
		}
		for i, d := int(sk.off), sk.base; i < p.end(b); {
			gap, w := binary.Uvarint(p.gaps[i:])
			d += uint32(gap)
			blocks = append(blocks, d)
			i += w
		}
	}
	if !slices.Equal(blocks, model) {
		t.Fatalf("blocks give %v, want %v", blocks, model)
	}
	// Probes: each listed number and its neighbours, ascending, some skipped.
	var probes []uint32
	for _, d := range model {
		for _, q := range [...]uint32{d - 1, d, d + 1} {
			if q <= d+1 && (len(probes) == 0 || q > probes[len(probes)-1]) && rand.Intn(4) > 0 {
				probes = append(probes, q)
			}
		}
	}
	sk := seeker{p: p, b: -1}
	for _, d := range probes {
		_, want := slices.BinarySearch(model, d)
		if sk.has(d) != want {
			t.Fatalf("seeker.has(%d) = %v, want %v", d, !want, want)
		}
	}
}
