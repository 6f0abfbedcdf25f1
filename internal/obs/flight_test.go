package obs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
)

func TestFlightRingBoundsAndOrder(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 10; i++ {
		f.Record(FlightEvent{Kind: "put", Detail: string(rune('a' + i))})
	}
	if f.Len() != 4 {
		t.Fatalf("ring retains %d, want 4", f.Len())
	}
	evs := f.Snapshot(FlightFilter{})
	if len(evs) != 4 {
		t.Fatalf("snapshot returned %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(10 - i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (newest first)", i, ev.Seq, want)
		}
	}
}

func TestFlightFilter(t *testing.T) {
	f := NewFlight(16)
	f.Record(FlightEvent{Kind: "put", Trace: "aaaa", Record: "r1"})
	f.Record(FlightEvent{Kind: "get", Trace: "bbbb", Record: "r1"})
	f.Record(FlightEvent{Kind: "repl.apply", Trace: "aaaa", Record: "r2"})

	if got := f.Snapshot(FlightFilter{Trace: "aaaa"}); len(got) != 2 {
		t.Fatalf("trace filter: got %d, want 2", len(got))
	}
	if got := f.Snapshot(FlightFilter{Kind: "REPL"}); len(got) != 1 || got[0].Kind != "repl.apply" {
		t.Fatalf("kind filter (case-folded substring): got %+v", got)
	}
	if got := f.Snapshot(FlightFilter{Record: "r1", Limit: 1}); len(got) != 1 || got[0].Kind != "get" {
		t.Fatalf("record filter with limit: got %+v", got)
	}
}

// testToken stands in for the vault's record token: 12 lowercase hex digits.
func testToken(i int) string { return fmt.Sprintf("%012x", uint64(i)*0x9e3779b97f4a7c15>>16) }

func TestFlightEventCodecRoundTrip(t *testing.T) {
	in := FlightEvent{
		Seq: 42, Time: time.Unix(0, 1700000000123456789),
		Kind: "put", Record: testToken(1), Trace: "0123456789abcdef",
		Outcome: "ok", Dur: 1500 * time.Microsecond, Shard: "3", Detail: "v2",
	}
	for _, prev := range []struct {
		seq  uint64
		time int64
	}{{0, 0}, {41, in.Time.UnixNano() - int64(3*time.Millisecond)}, {50, in.Time.UnixNano() + int64(time.Second)}} {
		b := encodeFlightEvent(nil, in, int64(in.Seq-prev.seq), in.Time.UnixNano()-prev.time)
		out, ok := decodeFlightEvent(b, prev.seq, prev.time)
		if !ok {
			t.Fatalf("after %+v: decode failed", prev)
		}
		if out != in {
			t.Fatalf("after %+v: round trip mismatch:\n in=%+v\nout=%+v", prev, in, out)
		}
	}
}

func TestFlightSinkPersistAndDecode(t *testing.T) {
	mem := faultfs.NewMem()
	f := NewFlight(64)
	sink, err := OpenFlightSink(mem, "vault/flight")
	if err != nil {
		t.Fatal(err)
	}
	var last FlightEvent
	for i := 0; i < 5; i++ {
		last = f.Record(FlightEvent{Kind: "put", Record: testToken(i), Outcome: "ok"})
		sink.Append(last)
	}
	if err := sink.Err(); err != nil {
		t.Fatalf("sink latched an error: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadFlightDir(mem, "vault/flight")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 || evs[4].Seq != last.Seq || evs[4].Record != last.Record {
		t.Fatalf("decoded %d events, last=%+v", len(evs), evs[len(evs)-1])
	}
}

// TestFlightTornTail is the heart of the crash contract: after a power cut
// that keeps only part of the unsynced segment tail, decoding must yield a
// clean prefix of the recorded events and silently discard the torn frame.
func TestFlightTornTail(t *testing.T) {
	mem := faultfs.NewMem()
	f := NewFlight(64)
	sink, err := OpenFlightSink(mem, "vault/flight")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		sink.Append(f.Record(FlightEvent{Kind: "put", Outcome: "ok"}))
	}
	img := mem.CrashImage(faultfs.KeepHalf)
	evs, err := ReadFlightDir(img, "vault/flight")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) >= 8 {
		t.Fatalf("KeepHalf survived all %d events; expected a truncated prefix", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: surviving events are not a prefix", i, ev.Seq)
		}
	}
}

func TestFlightSegmentRotationAndPruning(t *testing.T) {
	mem := faultfs.NewMem()
	for boot := 0; boot < flightKeepSegments+3; boot++ {
		sink, err := OpenFlightSink(mem, "d/flight")
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		sink.Append(FlightEvent{Seq: uint64(boot), Kind: "open"})
		sink.Close()
	}
	nums, err := listFlightSegments(mem, "d/flight")
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) > flightKeepSegments {
		t.Fatalf("%d segments retained, cap is %d", len(nums), flightKeepSegments)
	}
	if nums[len(nums)-1] != uint64(flightKeepSegments+3) {
		t.Fatalf("newest segment is %d, want %d", nums[len(nums)-1], flightKeepSegments+3)
	}
}

// TestFlightSinkRollsWithinOneBoot: a sink that is never reopened must not
// grow one file forever. Before the roll, the segment only ever changed in
// OpenFlightSink, so a long-lived daemon appended to a single segment without
// bound; now it rolls at flightSegmentBytes and prunes at every roll.
func TestFlightSinkRollsWithinOneBoot(t *testing.T) {
	mem := faultfs.NewMem()
	sink, err := OpenFlightSink(mem, "d/flight")
	if err != nil {
		t.Fatal(err)
	}
	// Maximal events (~3 KiB framed) keep the loop short.
	pad := strings.Repeat("x", flightMaxStr)
	ev := FlightEvent{Kind: pad, Record: pad, Trace: pad, Outcome: pad, Shard: pad, Detail: pad}
	// Events are a millisecond apart, which every event but a segment's first
	// stores as its time delta.
	base := time.Unix(0, 1700000000000000000)
	at := func(seq int) time.Time { return base.Add(time.Duration(seq) * time.Millisecond) }
	ev.Time = at(1)
	frameLen := len(frame.Var.Append(nil, 0, encodeFlightEvent(nil, ev, 1, int64(time.Millisecond))))
	total := (flightKeepSegments + 2) * flightSegmentBytes / frameLen

	segments := func() (n int, bytes int64) {
		nums, err := listFlightSegments(mem, "d/flight")
		if err != nil {
			t.Fatal(err)
		}
		for _, num := range nums {
			data, err := mem.ReadFile("d/flight/" + flightSegName(num))
			if err != nil {
				t.Fatal(err)
			}
			if len(data) > flightSegmentBytes {
				t.Fatalf("segment %d holds %d bytes, bound is %d", num, len(data), flightSegmentBytes)
			}
			bytes += int64(len(data))
		}
		return len(nums), bytes
	}
	for seq := 1; seq <= total; seq++ {
		ev.Seq, ev.Time = uint64(seq), at(seq)
		sink.Append(ev)
		if seq == flightSegmentBytes/frameLen+1 {
			// Just past the first bound: two segments, nothing pruned yet, and
			// every event decodes in order across the boundary, with its time:
			// the new segment's first event stores it whole.
			if n, _ := segments(); n != 2 {
				t.Fatalf("%d segments after writing past the bound once, want 2", n)
			}
			evs, err := ReadFlightDir(mem, "d/flight")
			if err != nil || len(evs) != seq {
				t.Fatalf("decoded %d of %d events across the roll (%v)", len(evs), seq, err)
			}
			for i, got := range evs {
				if got.Seq != uint64(i+1) || !got.Time.Equal(at(i+1)) {
					t.Fatalf("event %d has seq %d, time %v across the roll; want %d, %v", i, got.Seq, got.Time, i+1, at(i+1))
				}
			}
		}
	}
	if err := sink.Err(); err != nil {
		t.Fatalf("sink latched an error: %v", err)
	}
	n, bytes := segments()
	if n != flightKeepSegments || bytes > flightKeepSegments*flightSegmentBytes {
		t.Fatalf("%d segments holding %d bytes after %d events; bound is %d × %d", n, bytes, total, flightKeepSegments, flightSegmentBytes)
	}
	// What survives is the newest events, still contiguous.
	evs, err := ReadFlightDir(mem, "d/flight")
	if err != nil || len(evs) == 0 || evs[len(evs)-1].Seq != uint64(total) {
		t.Fatalf("tail after pruning: %d events (%v)", len(evs), err)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("gap after pruning: seq %d follows %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// encodeFlightEventV1 is the layout segments held before v2: seq, absolute
// time and duration as u64s, strings with u16 lengths.
func encodeFlightEventV1(ev FlightEvent) []byte {
	b := []byte{flightEventV1}
	b = binary.BigEndian.AppendUint64(b, ev.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(ev.Time.UnixNano()))
	b = binary.BigEndian.AppendUint64(b, uint64(ev.Dur))
	for _, s := range ev.Strings() {
		b = append(binary.BigEndian.AppendUint16(b, uint16(len(s))), s...)
	}
	return b
}

// encodeFlightEventV2 is the layout segments held before v3, each event in a
// frame.Seq frame that carries its seq: the time as a delta from the previous
// event of the segment, then every string as a token.
func encodeFlightEventV2(ev FlightEvent, prev int64) []byte {
	b := []byte{flightEventV2}
	b = frame.AppendVarint(b, ev.Time.UnixNano()-prev)
	b = frame.AppendUvarint(b, uint64(ev.Dur))
	for _, s := range ev.Strings() {
		b = frame.AppendToken(b, s)
	}
	return b
}

// legacySegment is the segment an older binary wrote for evs: v1 or v2
// events in frame.Seq frames.
func legacySegment(version int, evs []FlightEvent) []byte {
	var seg []byte
	prev := int64(0)
	for _, ev := range evs {
		body := encodeFlightEventV1(ev)
		if version == flightEventV2 {
			body = encodeFlightEventV2(ev, prev)
		}
		seg = frame.Seq.Append(seg, ev.Seq, body)
		prev = ev.Time.UnixNano()
	}
	return seg
}

// sinkSegment appends evs, in order, through a FlightSink and returns the
// segment it wrote.
func sinkSegment(t testing.TB, evs []FlightEvent) []byte {
	t.Helper()
	mem := faultfs.NewMem()
	sink, err := OpenFlightSink(mem, "d/flight")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		sink.Append(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := mem.ReadFile("d/flight/" + flightSegName(1))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFlightSegmentsDecodeEitherLayout: v1 and v2 segments from older
// binaries still decode, and a v3 segment gives back every event exactly —
// seqs and times included, though each is stored as a delta from the one
// before, and in the v3 row both step backwards, as they do when two
// goroutines' events reach the sink out of order.
func TestFlightSegmentsDecodeEitherLayout(t *testing.T) {
	f := NewFlight(16)
	var recorded []FlightEvent
	for i, d := range []time.Duration{0, 3 * time.Millisecond, -time.Second, 90 * time.Minute} {
		recorded = append(recorded, f.Record(FlightEvent{
			Time: time.Unix(0, 1700000000123456789).Add(d), Kind: "get", Record: testToken(i),
			Trace: "0123456789abcdef", Outcome: "ok", Dur: time.Duration(i) * time.Millisecond,
		}))
	}
	shuffled := []FlightEvent{recorded[0], recorded[2], recorded[1], recorded[3]}
	segs := []struct {
		name string
		seg  []byte
		want []FlightEvent
	}{
		{"v1", legacySegment(flightEventV1, recorded), recorded},
		{"v2", legacySegment(flightEventV2, recorded), recorded},
		{"v3", sinkSegment(t, recorded), recorded},
		{"v3, seq and time stepping back", sinkSegment(t, shuffled), shuffled},
	}
	for _, tc := range segs {
		evs, tail := DecodeFlightSegment(tc.seg)
		if tail != 0 || len(evs) != len(tc.want) {
			t.Fatalf("%s: %d events, %d tail bytes", tc.name, len(evs), tail)
		}
		for i, ev := range evs {
			want := tc.want[i]
			want.Time = time.Unix(0, want.Time.UnixNano()) // what a decoder can know
			if ev != want {
				t.Fatalf("%s: event %d\n got %+v\nwant %+v", tc.name, i, ev, want)
			}
		}
	}
	v1, v2, v3 := len(segs[0].seg), len(segs[1].seg), len(segs[2].seg)
	if v2 >= v1*2/3 || v3 >= v2*3/4 {
		t.Errorf("v1, v2 and v3 segments are %d, %d and %d bytes: want each step under two thirds and three quarters", v1, v2, v3)
	}
}

// TestFlightSegmentTornOrBare: a torn v3 tail decodes to the whole frames
// before it, and a segment that holds only its magic byte (a first write torn
// after one byte) to no events and no tail.
func TestFlightSegmentTornOrBare(t *testing.T) {
	f := NewFlight(8)
	var evs []FlightEvent
	for i := 0; i < 3; i++ {
		evs = append(evs, f.Record(FlightEvent{Kind: "put", Record: testToken(i), Outcome: "ok"}))
	}
	seg := sinkSegment(t, evs)
	whole2 := len(sinkSegment(t, evs[:2]))
	for cut := whole2; cut < len(seg); cut++ {
		got, tail := DecodeFlightSegment(seg[:cut])
		if len(got) != 2 || got[1].Seq != evs[1].Seq || tail != cut-whole2 {
			t.Fatalf("cut to %d of %d bytes: %d events, tail %d; want 2, %d", cut, len(seg), len(got), tail, cut-whole2)
		}
	}
	if got, tail := DecodeFlightSegment(seg[:1]); len(got) != 0 || tail != 0 {
		t.Fatalf("magic byte alone: %d events, tail %d; want 0, 0", len(got), tail)
	}
}

// TestFlightStoredBytesPerEvent is the budget for what the op envelope's
// event costs a segment, frame included: an op kind, a record token, a
// generated trace ID, an outcome and a latency, a few milliseconds after the
// previous event. v1 segments spent 86 B on it, v2 segments 48.
func TestFlightStoredBytesPerEvent(t *testing.T) {
	const events, budget = 1000, 36
	mem := faultfs.NewMem()
	sink, err := OpenFlightSink(mem, "d/flight")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFlight(16)
	at := time.Unix(0, 1700000000123456789)
	for i := 0; i < events; i++ {
		at = at.Add(time.Duration(i%7+1) * time.Millisecond)
		sink.Append(f.Record(FlightEvent{
			Time: at, Kind: "put", Record: testToken(i), Trace: "0123456789abcdef",
			Outcome: "ok", Dur: time.Duration(200+i%300) * time.Microsecond,
		}))
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := mem.ReadFile("d/flight/" + flightSegName(1))
	if err != nil {
		t.Fatal(err)
	}
	per := float64(len(data)) / events
	t.Logf("stored: %.1f B/event", per)
	if per > budget {
		t.Errorf("a flight event costs its segment %.1f B, budget is %d", per, budget)
	}
}

// TestFlightSinkAppendAllocs: the sink encodes into buffers it reuses, so an
// event costs its segment's file no allocation of its own.
func TestFlightSinkAppendAllocs(t *testing.T) {
	sink, err := OpenFlightSink(faultfs.NewMem(), "d/flight")
	if err != nil {
		t.Fatal(err)
	}
	ev := FlightEvent{Time: time.Unix(0, 1700000000123456789), Kind: "get", Record: testToken(1),
		Trace: "0123456789abcdef", Outcome: "ok", Dur: 300 * time.Microsecond}
	allocs := testing.AllocsPerRun(2000, func() {
		ev.Seq++
		ev.Time = ev.Time.Add(time.Millisecond)
		sink.Append(ev)
	})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if allocs >= 1 {
		t.Errorf("FlightSink.Append made %v allocations per event, want under 1", allocs)
	}
}

// TestFlightEventsArePHIFree: a stored event spells out none of its fields.
// Kind and outcome are vocabulary words, and the record token (which the
// vault keys, so no reader can recompute it from an ID) and the trace ID are
// packed to the bytes their hex spells.
func TestFlightEventsArePHIFree(t *testing.T) {
	ev := FlightEvent{Kind: "put", Record: testToken(7), Trace: "0123456789abcdef", Outcome: "ok"}
	enc := encodeFlightEvent(nil, ev, 1, 1)
	for _, field := range ev.Strings() {
		if field != "" && bytes.Contains(enc, []byte(field)) {
			t.Fatalf("encoded event %x spells out %q", enc, field)
		}
	}
}

// FuzzFlightSegment proves the offline decoder is total: arbitrary bytes —
// including mutated valid segments — never panic it.
func FuzzFlightSegment(f *testing.F) {
	fl := NewFlight(8)
	var evs []FlightEvent
	for i := 0; i < 3; i++ {
		evs = append(evs, fl.Record(FlightEvent{Kind: "put", Record: testToken(i), Outcome: "ok", Trace: "0123456789abcdef"}))
	}
	v2 := legacySegment(flightEventV2, evs)
	f.Add(v2)
	f.Add(v2[:len(v2)-3])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	v3 := sinkSegment(f, evs)
	f.Add(v3)
	f.Add(v3[:len(v3)-3])
	f.Add([]byte{flightSegV3})
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, tail := DecodeFlightSegment(data)
		if tail < 0 || tail > len(data) {
			t.Fatalf("tail %d out of range for %d bytes", tail, len(data))
		}
		for _, ev := range evs {
			if len(ev.Kind) > flightMaxStr || len(ev.Detail) > flightMaxStr {
				t.Fatal("decoded event exceeds field caps")
			}
		}
	})
}
