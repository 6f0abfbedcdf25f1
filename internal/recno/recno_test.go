package recno

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

func TestInternFindID(t *testing.T) {
	tb := New()
	if _, ok := tb.Find("a"); ok || tb.Len() != 0 {
		t.Fatalf("empty table finds a, or has Len %d", tb.Len())
	}
	a, b := tb.Intern("a"), tb.Intern("b")
	if a != 0 || b != 1 || tb.Intern("a") != 0 || tb.Len() != 2 {
		t.Fatalf("Intern a, b, a = %d, %d, %d with Len %d; want 0, 1, 0 and 2", a, b, tb.Intern("a"), tb.Len())
	}
	if n, ok := tb.Find("b"); !ok || n != 1 || tb.ID(1) != "b" {
		t.Errorf("Find(b) = %d, %v; ID(1) = %q", n, ok, tb.ID(1))
	}
	if _, ok := tb.Find("c"); ok || tb.Len() != 2 {
		t.Errorf("Find of an absent ID found it or grew the table to %d", tb.Len())
	}
}

// TestInternKeepsItsOwnCopy: the table must not pin the caller's string,
// which may be a slice of a much larger request buffer.
func TestInternKeepsItsOwnCopy(t *testing.T) {
	buf := []byte("rec-1 and a lot more request body")
	id := unsafe.String(&buf[0], 5)
	tb := New()
	tb.Intern(id)
	if got := tb.ID(0); got != "rec-1" || unsafe.StringData(got) == &buf[0] {
		t.Errorf("ID(0) = %q sharing the caller's bytes: %v", got, unsafe.StringData(got) == &buf[0])
	}
}

// TestRecnoConcurrent is for the race detector: writers intern overlapping
// IDs while readers find and resolve them. Every ID ends with one number
// and every number with its ID.
func TestRecnoConcurrent(t *testing.T) {
	const workers, ids = 4, 500
	tb := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				id := fmt.Sprintf("rec-%d", (i+w*ids/workers)%ids)
				if n := tb.Intern(id); tb.ID(n) != id {
					t.Errorf("ID(Intern(%s)) = %s", id, tb.ID(n))
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				id := fmt.Sprintf("rec-%d", i)
				if n, ok := tb.Find(id); ok && tb.ID(n) != id {
					t.Errorf("ID(Find(%s)) = %s", id, tb.ID(n))
					return
				}
				_ = tb.Len()
			}
		}()
	}
	wg.Wait()
	if tb.Len() != ids {
		t.Fatalf("Len = %d, want %d", tb.Len(), ids)
	}
	seen := make(map[string]bool)
	for n := 0; n < ids; n++ {
		id := tb.ID(uint32(n))
		if m, ok := tb.Find(id); !ok || m != uint32(n) || seen[id] {
			t.Errorf("number %d: ID %s finds %d, %v (seen before: %v)", n, id, m, ok, seen[id])
		}
		seen[id] = true
	}
}
