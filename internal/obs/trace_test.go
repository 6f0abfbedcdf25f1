package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceIDsAreMinted: every trace gets a fresh 16-hex-char ID, whatever
// the caller passes as id.
func TestTraceIDsAreMinted(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	seen := map[string]bool{}
	for _, id := range []string{"", "caller-supplied-1", "mrn-000123", "bad id with spaces"} {
		_, got := tr.Start(context.Background(), "op", id)
		if len(got.ID) != 16 || strings.Trim(got.ID, "0123456789abcdef") != "" {
			t.Errorf("Start(%q) minted %q, want 16 hex chars", id, got.ID)
		}
		if seen[got.ID] {
			t.Errorf("Start(%q) reused ID %q", id, got.ID)
		}
		seen[got.ID] = true
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, trace := tr.Start(context.Background(), "op", "")
	ctx1, parent := StartSpan(ctx, "parent")
	_, child := StartSpan(ctx1, "child")
	child.SetAttr("bytes", "42")
	child.End(nil)
	parent.End(errors.New("boom"))
	_, sibling := StartSpan(ctx, "sibling")
	sibling.End(nil)
	tr.Finish(trace, nil)

	if got := trace.SpanCount(); got != 3 {
		t.Fatalf("SpanCount = %d, want 3", got)
	}
	if len(trace.Spans) != 2 {
		t.Fatalf("root spans = %d, want 2 (parent, sibling)", len(trace.Spans))
	}
	p := trace.Spans[0]
	if p.Name != "parent" || p.Err != "boom" || len(p.Children) != 1 {
		t.Errorf("parent span wrong: %+v", p)
	}
	c := p.Children[0]
	if c.Name != "child" || len(c.Attrs) != 1 || c.Attrs[0] != L("bytes", "42") {
		t.Errorf("child span wrong: %+v", c)
	}
}

func TestUntracedContextIsNoop(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "anything")
	if sp != nil {
		t.Fatal("StartSpan on untraced ctx must return nil span")
	}
	// All methods must be nil-safe.
	sp.SetAttr("k", "v")
	sp.End(nil)
	if TraceID(ctx) != "" {
		t.Error("untraced ctx must have empty TraceID")
	}
}

func TestFinishClosesOrphanedSpans(t *testing.T) {
	// A cancelled operation abandons its spans mid-flight; Finish must seal
	// them so the retained trace has no open (zero-duration, unended) spans.
	tr := NewTracer(TracerConfig{SlowThreshold: time.Hour})
	ctx, trace := tr.Start(context.Background(), "op", "")
	ctx1, _ := StartSpan(ctx, "outer")
	StartSpan(ctx1, "inner-abandoned")
	time.Sleep(time.Millisecond)
	tr.Finish(trace, context.Canceled)

	if trace.Err != context.Canceled.Error() {
		t.Errorf("trace error = %q", trace.Err)
	}
	var walk func(spans []*Span)
	walk = func(spans []*Span) {
		for _, s := range spans {
			if s.Dur <= 0 {
				t.Errorf("span %s left with non-positive duration", s.Name)
			}
			if s.Err != "unfinished" {
				t.Errorf("span %s should be marked unfinished, got %q", s.Name, s.Err)
			}
			walk(s.Children)
		}
	}
	walk(trace.Spans)

	// Spans started after Finish must not mutate the immutable trace.
	_, late := StartSpan(ctx1, "too-late")
	if late != nil {
		t.Error("StartSpan after Finish must return nil")
	}
	if got := trace.SpanCount(); got != 2 {
		t.Errorf("SpanCount after late span = %d, want 2", got)
	}
}

// TestRingEvictionBounds checks that the ring keeps exactly its configured
// capacity, not a rounding of it.
func TestRingEvictionBounds(t *testing.T) {
	for _, capacity := range []int{5, 16, 20} {
		tr := NewTracer(TracerConfig{Capacity: capacity, SlowCapacity: 8, SlowThreshold: time.Hour})
		for i := 0; i < 100; i++ {
			_, trace := tr.Start(context.Background(), fmt.Sprintf("op-%d", i), "")
			tr.Finish(trace, nil)
		}
		got := tr.Snapshot(TraceFilter{})
		if len(got) != capacity {
			t.Errorf("Capacity %d: retained %d traces", capacity, len(got))
		}
		if started, finished := tr.Stats(); started != 100 || finished != 100 {
			t.Errorf("stats = (%d, %d), want (100, 100)", started, finished)
		}
	}
}

func TestSlowTracesPinned(t *testing.T) {
	// A burst of fast traffic larger than the fast ring must not evict a
	// slow trace: it is pinned in a ring of its own.
	tr := NewTracer(TracerConfig{Capacity: 4, SlowCapacity: 2, SlowThreshold: 20 * time.Millisecond})
	_, slow := tr.Start(context.Background(), "slow-op", "")
	time.Sleep(25 * time.Millisecond)
	tr.Finish(slow, nil)
	for i := 0; i < 100; i++ {
		_, trace := tr.Start(context.Background(), "fast-op", "")
		tr.Finish(trace, nil)
	}
	if got := tr.Snapshot(TraceFilter{Op: "slow-op"}); len(got) != 1 || !got[0].Slow {
		t.Errorf("slow trace not pinned: %v", got)
	}
	if got := tr.Snapshot(TraceFilter{Op: "fast-op"}); len(got) != 4 {
		t.Errorf("fast ring holds %d traces, want 4", len(got))
	}
}

func TestSnapshotFilter(t *testing.T) {
	tr := NewTracer(TracerConfig{SlowThreshold: time.Hour})
	for i := 0; i < 5; i++ {
		_, trace := tr.Start(context.Background(), "put", "")
		tr.Finish(trace, nil)
	}
	_, g := tr.Start(context.Background(), "get", "")
	time.Sleep(2 * time.Millisecond)
	tr.Finish(g, nil)

	if got := tr.Snapshot(TraceFilter{Op: "PUT"}); len(got) != 5 {
		t.Errorf("case-fold op filter matched %d, want 5", len(got))
	}
	if got := tr.Snapshot(TraceFilter{Op: "put", Limit: 2}); len(got) != 2 {
		t.Errorf("limit ignored: got %d", len(got))
	}
	if got := tr.Snapshot(TraceFilter{MinDur: time.Millisecond}); len(got) != 1 || got[0].Op != "get" {
		t.Errorf("min-duration filter wrong: %v", got)
	}
	if got := tr.Snapshot(TraceFilter{Op: "shred"}); len(got) != 0 {
		t.Errorf("non-matching op returned %d traces", len(got))
	}
}

func TestTracerConcurrency(t *testing.T) {
	// Hammer every tracer surface from many goroutines; run under -race this
	// is the data-race check for the rings and span trees.
	tr := NewTracer(TracerConfig{Capacity: 32, SlowCapacity: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, trace := tr.Start(context.Background(), "op", "")
				ctx1, sp := StartSpan(ctx, "outer")
				_, inner := StartSpan(ctx1, "inner")
				inner.SetAttr("i", "1")
				inner.End(nil)
				sp.End(nil)
				tr.Finish(trace, nil)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for _, got := range tr.Snapshot(TraceFilter{Limit: 10}) {
					_ = got.SpanCount() // finished traces must be safely readable
				}
			}
		}()
	}
	wg.Wait()
	started, finished := tr.Stats()
	if started != 1600 || finished != 1600 {
		t.Errorf("stats = (%d, %d), want (1600, 1600)", started, finished)
	}
}

func TestDoubleFinishAndDoubleEnd(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, trace := tr.Start(context.Background(), "op", "")
	_, sp := StartSpan(ctx, "s")
	sp.End(nil)
	d := sp.Dur
	sp.End(errors.New("second end"))
	if sp.Dur != d || sp.Err != "" {
		t.Error("second End must be a no-op")
	}
	tr.Finish(trace, nil)
	tr.Finish(trace, errors.New("second finish"))
	if trace.Err != "" {
		t.Error("second Finish must be a no-op")
	}
	if _, finished := tr.Stats(); finished != 1 {
		t.Errorf("finished = %d, want 1", finished)
	}
}
