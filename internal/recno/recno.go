// Package recno numbers record IDs. A shard keeps a key, a custody chain and
// index entries for every record; keyed by the ID string, each of those
// tables would pay its own map slot and key per record. Instead the shard
// numbers each ID once, in one Table, and every per-record table becomes a
// slice indexed by that number.
//
// Numbers live only in RAM: a shard's packages intern the IDs they restore
// or replay as they open, so the same ID may get a different number on the
// next open. A number is never reused, because record IDs are never reused
// after a shred. Only what registers a record interns its ID; every read
// path uses Find, so a lookup of an absent ID grows nothing.
package recno

import (
	"hash/maphash"
	"strings"
	"sync"
)

// Table maps IDs to dense numbers from 0 and back. Safe for concurrent use;
// its lock is a leaf: nothing else is acquired while it is held.
//
// The ID → number direction is an open-addressing hash set of numbers over
// ids, not a map[string]uint32: a map slot would hold a second string header
// per ID, and the set's slots cost 4 bytes at a load factor of at most 1/2.
type Table struct {
	mu    sync.RWMutex
	seed  maphash.Seed
	slots []uint32 // linear probing; number+1, 0 is empty; len is 0 or a power of two
	ids   []string // number -> the table's own copy of the ID
}

// New returns an empty Table.
func New() *Table { return &Table{seed: maphash.MakeSeed()} }

// Intern returns id's number, assigning the next one if id has none. The
// table keeps its own copy of id, never the caller's string.
func (t *Table) Intern(id string) uint32 {
	if n, ok := t.Find(id); ok {
		return n
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.find(id); ok {
		return n
	}
	if 2*(len(t.ids)+1) > len(t.slots) {
		t.slots = make([]uint32, max(2*len(t.slots), 64))
		for n := range t.ids {
			t.place(uint32(n))
		}
	}
	n := uint32(len(t.ids))
	t.ids = append(t.ids, strings.Clone(id))
	t.place(n)
	return n
}

// Find returns id's number, if it has one.
func (t *Table) Find(id string) (uint32, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.find(id)
}

// find is Find under t.mu.
func (t *Table) find(id string) (uint32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := maphash.String(t.seed, id) & mask; ; i = (i + 1) & mask {
		switch s := t.slots[i]; {
		case s == 0:
			return 0, false
		case t.ids[s-1] == id:
			return s - 1, true
		}
	}
}

// place puts number n in the first free slot of its ID's probe sequence;
// the caller holds t.mu exclusively.
func (t *Table) place(n uint32) {
	mask := uint64(len(t.slots) - 1)
	i := maphash.String(t.seed, t.ids[n]) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = n + 1
}

// ID returns the ID numbered n, which Intern must have returned.
func (t *Table) ID(n uint32) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ids[n]
}

// IDs returns every numbered ID, indexed by its number. Numbers are only
// ever added, so the slice stays valid while later Interns extend the table.
func (t *Table) IDs() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ids[:len(t.ids):len(t.ids)]
}

// Len returns how many IDs are numbered.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.ids)
}

// Grow returns s lengthened with zero elements, if it must be, so that n
// indexes it: how a per-record slice keeps up with the table's numbers.
func Grow[S ~[]E, E any](s S, n uint32) S {
	if int(n) < len(s) {
		return s
	}
	return append(s, make(S, int(n)+1-len(s))...)
}
