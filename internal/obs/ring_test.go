package obs

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// liveHeap is the least heap in use over three readings, each after two
// collections. HeapAlloc is process-wide: another goroutine's live bytes can
// land in one reading, while the structure under test is live in all three.
func liveHeap() uint64 {
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

// envelopeEvent is the op envelope's event: a kind, a record token, a
// minted trace ID, an outcome, a latency and a shard label.
func envelopeEvent(i int) FlightEvent {
	return FlightEvent{Kind: "put", Record: testToken(i), Trace: "0123456789abcdef",
		Outcome: "ok", Dur: time.Duration(200+i%300) * time.Microsecond, Shard: "2"}
}

// TestFlightRingRoundTrip: Snapshot returns, newest first, the events Record
// returned, every field equal and the time to the nanosecond; a string
// longer than flightMaxStr comes back cut to it, as a segment stores it.
func TestFlightRingRoundTrip(t *testing.T) {
	f := NewFlight(8)
	long := strings.Repeat("d", 600)
	in := []FlightEvent{
		envelopeEvent(1),
		{Kind: "wal.wedge", Outcome: "error", Detail: "fsync: EIO"},
		{Kind: "custom-kind", Record: "not-hex", Trace: "0123456789abcdef", Outcome: "custom-outcome",
			Dur: -time.Second, Shard: "east", Detail: long, Time: time.Unix(0, 1700000000123456789)},
		{Kind: "get", Outcome: "not_found", Dur: time.Nanosecond},
	}
	var want []FlightEvent
	for _, ev := range in {
		want = append([]FlightEvent{f.Record(ev)}, want...)
	}
	if got := want[1].Detail; got != long {
		t.Fatalf("Record returned a %d-byte detail, want the caller's 600", len(got))
	}
	want[1].Detail = long[:flightMaxStr]
	got := f.Snapshot(FlightFilter{})
	if len(got) != len(want) {
		t.Fatalf("snapshot holds %d events, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Time.Equal(w.Time) || g.Time.UnixNano() != w.Time.UnixNano() {
			t.Errorf("event %d: time %v, want %v", i, g.Time, w.Time)
		}
		g.Time, w.Time = time.Time{}, time.Time{}
		if g != w {
			t.Errorf("event %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestFlightRingRecordAllocs: once the ring has wrapped, Record encodes into
// the slot it overwrites and allocates nothing.
func TestFlightRingRecordAllocs(t *testing.T) {
	f := NewFlight(64)
	for i := 0; i < 64; i++ {
		f.Record(envelopeEvent(i))
	}
	ev := envelopeEvent(0)
	if allocs := testing.AllocsPerRun(1000, func() { f.Record(ev) }); allocs != 0 {
		t.Errorf("Flight.Record on a full ring made %v allocations, want 0", allocs)
	}
}

// TestFlightRingResidentBytes is the budget for what a full default ring of
// op-envelope events keeps resident, slot headers included. A ring of
// FlightEvent values kept 152 B/event.
func TestFlightRingResidentBytes(t *testing.T) {
	const budget = 80
	before := liveHeap()
	f := NewFlight(DefaultFlightCapacity)
	for i := 0; i < DefaultFlightCapacity; i++ {
		f.Record(envelopeEvent(i))
	}
	per := float64(int64(liveHeap())-int64(before)) / DefaultFlightCapacity
	runtime.KeepAlive(f)
	t.Logf("resident: %.1f B/event", per)
	if per > budget {
		t.Errorf("the flight ring keeps %.1f B/event resident, budget is %d", per, budget)
	}
}

// getTrace finishes on tr a trace shaped like a cached GET's: the op
// envelope's span over a version read (DEK lookup and decryption) and an
// audit append.
func getTrace(tr *Tracer) *Trace {
	ctx, trace := tr.Start(context.Background(), "GET /records/{id}", "")
	ctx1, op := StartSpan(ctx, "core.get")
	op.SetAttr("shard", "0")
	ctx2, rv := StartSpan(ctx1, "core.read_version")
	rv.SetAttr("shard", "0")
	rv.SetAttr("block_cache", "hit")
	_, ks := StartSpan(ctx2, "keystore.get")
	ks.SetAttr("dek_cache", "hit")
	ks.End(nil)
	_, open := StartSpan(ctx2, "crypto.open")
	open.SetUint("ciphertext_bytes", 1187)
	open.End(nil)
	rv.End(nil)
	_, au := StartSpan(ctx1, "audit.append")
	au.End(nil)
	op.End(nil)
	tr.Finish(trace, nil)
	return trace
}

// sameSpans reports where two span trees differ, or "".
func sameSpans(got, want []*Span, at string) string {
	if len(got) != len(want) {
		return at + ": span counts differ"
	}
	for i, g := range got {
		w := want[i]
		switch where := at + "/" + w.Name; {
		case g.Name != w.Name || !g.Start.Equal(w.Start) || g.Dur != w.Dur || g.Err != w.Err:
			return where + ": name, start, duration or error differ"
		case len(g.Attrs) != len(w.Attrs):
			return where + ": attribute counts differ"
		default:
			for j := range g.Attrs {
				if g.Attrs[j] != w.Attrs[j] {
					return where + ": attributes differ"
				}
			}
			if d := sameSpans(g.Children, w.Children, where); d != "" {
				return d
			}
		}
	}
	return ""
}

// TestTraceRingRoundTrip: Snapshot decodes each retained trace into the tree
// Finish sealed — a get-shaped one, one whose open span Finish closed as
// unfinished, an errored one and one from the slow ring.
func TestTraceRingRoundTrip(t *testing.T) {
	tr := NewTracer(TracerConfig{SlowThreshold: 20 * time.Millisecond})
	want := []*Trace{getTrace(tr)}

	ctx, open := tr.Start(context.Background(), "POST /records", "")
	StartSpan(ctx, "wal.commit")
	tr.Finish(open, nil)
	want = append(want, open)

	ctx, failed := tr.Start(context.Background(), "GET /records/{id}", "")
	_, sp := StartSpan(ctx, "core.get")
	sp.End(errors.New("not found"))
	tr.Finish(failed, errors.New("HTTP 404"))
	want = append(want, failed)

	ctx, slow := tr.Start(context.Background(), "GET /search", "")
	_, sp = StartSpan(ctx, "index.search")
	time.Sleep(25 * time.Millisecond)
	sp.SetUint("hits", 3)
	sp.End(nil)
	tr.Finish(slow, nil)
	want = append(want, slow)

	if open.Spans[0].Err != "unfinished" || !slow.Slow || failed.Err != "HTTP 404" {
		t.Fatalf("fixtures: unfinished %q, slow %v, error %q", open.Spans[0].Err, slow.Slow, failed.Err)
	}
	got := tr.Snapshot(TraceFilter{})
	if len(got) != len(want) {
		t.Fatalf("snapshot holds %d traces, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[len(want)-1-i] // newest first
		if g.ID != w.ID || g.Op != w.Op || !g.Start.Equal(w.Start) || g.Dur != w.Dur || g.Err != w.Err || g.Slow != w.Slow {
			t.Errorf("trace %d:\n got %+v\nwant %+v", i, g, w)
		}
		if d := sameSpans(g.Spans, w.Spans, w.Op); d != "" {
			t.Errorf("trace %d: %s", i, d)
		}
		if g.SpanCount() != w.SpanCount() {
			t.Errorf("trace %d: %d spans, want %d", i, g.SpanCount(), w.SpanCount())
		}
	}
	// A decoded span belongs to a finished trace: setting on it is a no-op.
	if s := got[len(got)-1].Spans[0]; s.Name == "core.get" {
		s.SetAttr("late", "x")
		s.End(errors.New("late"))
		if len(s.Attrs) != 1 || s.Err != "" {
			t.Errorf("a decoded span took a late attribute or error: %+v", s)
		}
	}
}

// TestTraceRingResidentBytes is the budget for what a full fast ring of
// get-shaped traces keeps resident, slot headers included. A ring of the
// sealed *Trace trees kept 998 B a trace.
func TestTraceRingResidentBytes(t *testing.T) {
	const traces, budget = 512, 320
	getTrace(NewTracer(TracerConfig{})) // registers the span histograms
	before := liveHeap()
	tr := NewTracer(TracerConfig{Capacity: traces, SlowThreshold: time.Hour})
	for i := 0; i < traces; i++ {
		getTrace(tr)
	}
	per := float64(int64(liveHeap())-int64(before)) / traces
	runtime.KeepAlive(tr)
	t.Logf("resident: %.1f B/trace", per)
	if per > budget {
		t.Errorf("the trace ring keeps %.1f B per get trace resident, budget is %d", per, budget)
	}
}

// TestEncodedRingsRace is for the race detector: Record and Finish encode
// into the rings while Snapshot copies and decodes them.
func TestEncodedRingsRace(t *testing.T) {
	f := NewFlight(32)
	tr := NewTracer(TracerConfig{Capacity: 16, SlowCapacity: 4})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				f.Record(envelopeEvent(g*1000 + i))
				getTrace(tr)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for _, ev := range f.Snapshot(FlightFilter{Kind: "put"}) {
					if ev.Trace != "0123456789abcdef" {
						t.Errorf("decoded event %+v", ev)
						return
					}
				}
				for _, trace := range tr.Snapshot(TraceFilter{Limit: 8}) {
					if trace.SpanCount() != 5 {
						t.Errorf("decoded trace holds %d spans, want 5", trace.SpanCount())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
