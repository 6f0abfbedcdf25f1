package index

import (
	"encoding/binary"
	"slices"
)

// postings is a term's posting list: ascending doc numbers, each stored as
// the uvarint gap from its predecessor, a byte or two where a []uint32 took
// four. The list is cut into blocks of about blockBytes, each starting at a
// skip entry, so that finding a doc number — to delete it, or to intersect —
// binary-searches the skips and decodes one block, not the list.
type postings struct {
	gaps  []byte
	skips []skip
	n     uint32 // doc numbers on the list
	last  uint32 // the greatest of them
}

// skip starts a block: its first gap is at gaps[off] and counts from base,
// the doc number before the block's first (0 for the first block), so the
// block holds doc numbers above base, and at most the next block's base.
type skip struct{ base, off uint32 }

// blockBytes is the gap bytes after which add starts a new block.
const blockBytes = 64

// add appends d, which is above every doc number on the list.
func (p *postings) add(d uint32) {
	if len(p.skips) == 0 || len(p.gaps)-int(p.skips[len(p.skips)-1].off) >= blockBytes {
		p.skips = append(p.skips, skip{base: p.last, off: uint32(len(p.gaps))})
	}
	p.gaps = binary.AppendUvarint(reserve(p.gaps, binary.MaxVarintLen32), uint64(d-p.last))
	p.n++
	p.last = d
}

// block is the block that holds d, if any does.
func (p *postings) block(d uint32) int {
	lo, hi := 0, len(p.skips) // the blocks before lo have a base below d, those from hi not
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); p.skips[m].base < d {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return max(lo-1, 0)
}

// end is the offset just past block b's gaps.
func (p *postings) end(b int) int {
	if b+1 < len(p.skips) {
		return int(p.skips[b+1].off)
	}
	return len(p.gaps)
}

// reserve returns b with room for n more bytes. A full b grows by an
// eighth, not by append's doubling: most posting lists are short, and
// doubling them would leave a third of their bytes unused.
func reserve(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	return append(make([]byte, 0, len(b)+len(b)/8+2*n), b...)
}

// each calls fn with every doc number on the list, ascending.
func (p *postings) each(fn func(d uint32)) {
	d := uint32(0)
	for i := 0; i < len(p.gaps); {
		gap, w := binary.Uvarint(p.gaps[i:])
		d += uint32(gap)
		fn(d)
		i += w
	}
}

// remove deletes d from the list, reporting whether it was there. The gap of
// d's successor then counts from d's predecessor, and the blocks after d's
// move down by the bytes that saves; a block left empty is dropped.
func (p *postings) remove(d uint32) bool {
	if p.n == 0 {
		return false
	}
	b := p.block(d)
	prev := p.skips[b].base
	for i, end := int(p.skips[b].off), p.end(b); i < end; {
		gap, w := binary.Uvarint(p.gaps[i:])
		if cur := prev + uint32(gap); cur != d {
			if cur > d {
				return false
			}
			prev, i = cur, i+w
			continue
		}
		var buf [binary.MaxVarintLen64]byte
		repl, j := buf[:0], i+w
		if j < len(p.gaps) {
			next, w2 := binary.Uvarint(p.gaps[j:])
			repl = binary.AppendUvarint(repl, gap+next)
			j += w2
		} else {
			p.last = prev
		}
		p.gaps = slices.Replace(p.gaps, i, j, repl...)
		saved := uint32(j - i - len(repl))
		for c := b + 1; c < len(p.skips); c++ {
			if p.skips[c].off == uint32(i+w) { // d's successor started block c
				p.skips[c] = skip{base: prev, off: uint32(i)}
			} else {
				p.skips[c].off -= saved
			}
		}
		if int(p.skips[b].off) == p.end(b) {
			p.skips = slices.Delete(p.skips, b, b+1)
		}
		p.n--
		return true
	}
	return false
}

// seeker answers, for ascending doc numbers, whether each is on a list,
// decoding from where the last answer left off while the next number is in
// the same block.
type seeker struct {
	p    *postings
	b    int    // the block being read; -1 before the first
	i    int    // offset of the next gap to read in it
	prev uint32 // the doc number that gap counts from
}

// has reports whether d, which is above every number asked before, is on
// the list.
func (s *seeker) has(d uint32) bool {
	if s.b < 0 || s.b+1 < len(s.p.skips) && d > s.p.skips[s.b+1].base { // d is past the block being read
		b := s.p.block(d)
		s.b, s.i, s.prev = b, int(s.p.skips[b].off), s.p.skips[b].base
	}
	for end := s.p.end(s.b); s.i < end; {
		gap, w := binary.Uvarint(s.p.gaps[s.i:])
		cur := s.prev + uint32(gap)
		if cur > d {
			return false
		}
		s.prev, s.i = cur, s.i+w
		if cur == d {
			return true
		}
	}
	return false
}
