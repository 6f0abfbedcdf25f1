package obs

import (
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

func TestFlightEventCodecRoundTrip(t *testing.T) {
	in := FlightEvent{
		Seq: 42, Time: time.Unix(0, 1700000000123456789),
		Kind: "put", Record: HashRecordID("rec-1"), Trace: "0123456789abcdef",
		Outcome: "ok", Dur: 1500 * time.Microsecond, Shard: "3", Detail: "v2",
	}
	prev := in.Time.UnixNano() - int64(3*time.Millisecond)
	out, ok := decodeFlightEvent(encodeFlightEvent(in, prev), in.Seq, prev)
	if !ok {
		t.Fatal("decode failed")
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
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
		last = f.Record(FlightEvent{Kind: "put", Record: HashRecordID("rec"), Outcome: "ok"})
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
	frameLen := len(frame.Seq.Append(nil, 0, encodeFlightEvent(ev, at(0).UnixNano())))
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

// TestFlightSegmentsDecodeEitherLayout: a v1 segment from an older binary
// still decodes, and a v2 segment gives back every event exactly — times
// included, though each is stored as a delta from the one before.
func TestFlightSegmentsDecodeEitherLayout(t *testing.T) {
	f := NewFlight(16)
	var recorded []FlightEvent
	var v1, v2 []byte
	prev := int64(0)
	for i, d := range []time.Duration{0, 3 * time.Millisecond, -time.Second, 90 * time.Minute} {
		ev := f.Record(FlightEvent{
			Time: time.Unix(0, 1700000000123456789).Add(d), Kind: "get", Record: HashRecordID(fmt.Sprint("rec-", i)),
			Trace: "0123456789abcdef", Outcome: "ok", Dur: time.Duration(i) * time.Millisecond,
		})
		recorded = append(recorded, ev)
		v1 = frame.Seq.Append(v1, ev.Seq, encodeFlightEventV1(ev))
		v2 = frame.Seq.Append(v2, ev.Seq, encodeFlightEvent(ev, prev))
		prev = ev.Time.UnixNano()
	}
	for name, seg := range map[string][]byte{"v1": v1, "v2": v2} {
		evs, tail := DecodeFlightSegment(seg)
		if tail != 0 || len(evs) != len(recorded) {
			t.Fatalf("%s: %d events, %d tail bytes", name, len(evs), tail)
		}
		for i, ev := range evs {
			want := recorded[i]
			want.Time = time.Unix(0, want.Time.UnixNano()) // what a decoder can know
			if ev != want {
				t.Fatalf("%s: event %d\n got %+v\nwant %+v", name, i, ev, want)
			}
		}
	}
	if len(v2) >= len(v1)*2/3 {
		t.Errorf("v2 segment is %d bytes, v1 %d: want under two thirds", len(v2), len(v1))
	}
}

// TestFlightStoredBytesPerEvent is the budget for what the op envelope's
// event costs a segment, frame included: an op kind, a hashed record ID, a
// generated trace ID, an outcome and a latency, a few milliseconds after the
// previous event. v1 segments spent 86 B on it.
func TestFlightStoredBytesPerEvent(t *testing.T) {
	const events, budget = 1000, 52
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
			Time: at, Kind: "put", Record: HashRecordID(fmt.Sprint("rec-", i)), Trace: "0123456789abcdef",
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

func TestFlightEventsArePHIFree(t *testing.T) {
	body := "PATIENT-BODY-SENTINEL"
	ev := FlightEvent{Kind: "put", Record: HashRecordID("rec-" + body), Outcome: "ok"}
	enc := string(encodeFlightEvent(ev, 0))
	if strings.Contains(enc, body) {
		t.Fatal("encoded event leaks the record ID")
	}
	if HashRecordID("a") == HashRecordID("b") || HashRecordID("") != "" {
		t.Fatal("HashRecordID misbehaves")
	}
}

// FuzzFlightSegment proves the offline decoder is total: arbitrary bytes —
// including mutated valid segments — never panic it.
func FuzzFlightSegment(f *testing.F) {
	var seed []byte
	var prev int64
	fl := NewFlight(8)
	for i := 0; i < 3; i++ {
		ev := fl.Record(FlightEvent{Kind: "put", Record: HashRecordID("r"), Outcome: "ok", Trace: "0123456789abcdef"})
		seed = frame.Seq.Append(seed, ev.Seq, encodeFlightEvent(ev, prev))
		prev = ev.Time.UnixNano()
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
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
