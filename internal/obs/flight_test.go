package obs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path"
	"slices"
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

// opEvent is the op envelope's event for seq: a get of a record token with a
// generated trace ID, a millisecond after seq-1.
func opEvent(seq int) FlightEvent {
	return FlightEvent{
		Seq: uint64(seq), Time: time.Unix(0, 1700000000000000000).Add(time.Duration(seq) * time.Millisecond),
		Kind: "get", Record: testToken(seq), Trace: "0123456789abcdef", Outcome: "ok", Dur: 300 * time.Microsecond,
	}
}

// maxEvent is an oversized event: every string field at flightMaxStr, about
// 3 KiB framed.
func maxEvent(seq int) FlightEvent {
	pad := strings.Repeat("x", flightMaxStr)
	ev := opEvent(seq)
	ev.Kind, ev.Record, ev.Trace, ev.Outcome, ev.Shard, ev.Detail = pad, pad, pad, pad, pad, pad
	return ev
}

// decodeSegment decodes one segment under dir.
func decodeSegment(t *testing.T, fsys faultfs.FS, dir string, num uint64) []FlightEvent {
	t.Helper()
	data, err := fsys.ReadFile(path.Join(dir, flightSegName(num)))
	if err != nil {
		t.Fatal(err)
	}
	evs, _ := DecodeFlightSegment(data)
	return evs
}

// contiguous fails t unless evs' seqs run without a gap.
func contiguous(t *testing.T, what string, evs []FlightEvent) {
	t.Helper()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("%s: seq %d follows %d", what, evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestFlightSegmentRotationAndPruning: every Open starts a fresh segment and
// prunes to the newest flightKeepSegments, however many boots came before —
// four segments of half a ring, two rings in all.
func TestFlightSegmentRotationAndPruning(t *testing.T) {
	if flightKeepSegments != 4 || flightKeepSegments*flightSegmentEvents != 2*DefaultFlightCapacity {
		t.Fatalf("keep %d segments of %d events; want 4 of half a ring", flightKeepSegments, flightSegmentEvents)
	}
	mem := faultfs.NewMem()
	const boots = flightKeepSegments + 3
	for boot := 1; boot <= boots; boot++ {
		sink, err := OpenFlightSink(mem, "d/flight")
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		sink.Append(opEvent(boot))
		sink.Close()
	}
	nums, err := FlightSegments(mem, "d/flight")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(nums) != fmt.Sprint([]uint64{4, 5, 6, 7}) {
		t.Fatalf("segments %v after %d boots, want the newest %d: [4 5 6 7]", nums, boots, flightKeepSegments)
	}
}

// TestFlightSinkRollsWithinOneBoot: a sink that is never reopened rolls once
// its segment holds half a ring and prunes at every roll, so a long-lived
// daemon keeps two rings, not one file that grows forever.
func TestFlightSinkRollsWithinOneBoot(t *testing.T) {
	mem := faultfs.NewMem()
	sink, err := OpenFlightSink(mem, "d/flight")
	if err != nil {
		t.Fatal(err)
	}
	total := 3*DefaultFlightCapacity + 100
	for seq := 1; seq <= total; seq++ {
		sink.Append(opEvent(seq))
		if seq == flightSegmentEvents+1 {
			// Just past half a ring: two segments, nothing pruned yet, and
			// every event decodes in order across the boundary, with its time:
			// the new segment's first event stores it whole.
			nums, _ := FlightSegments(mem, "d/flight")
			if len(nums) != 2 || len(decodeSegment(t, mem, "d/flight", nums[0])) != flightSegmentEvents {
				t.Fatalf("segments %v after %d events; want 2, the first holding %d", nums, seq, flightSegmentEvents)
			}
			evs, err := ReadFlightDir(mem, "d/flight")
			if err != nil || len(evs) != seq {
				t.Fatalf("decoded %d of %d events across the roll (%v)", len(evs), seq, err)
			}
			for i, got := range evs {
				if want := opEvent(i + 1); got.Seq != want.Seq || !got.Time.Equal(want.Time) {
					t.Fatalf("event %d has seq %d, time %v across the roll; want %d, %v", i, got.Seq, got.Time, want.Seq, want.Time)
				}
			}
		}
	}
	if err := sink.Err(); err != nil {
		t.Fatalf("sink latched an error: %v", err)
	}
	// Seven segments were written; the newest four remain: three full halves
	// of a ring and the 100 events of the current one.
	nums, err := FlightSegments(mem, "d/flight")
	if err != nil || fmt.Sprint(nums) != fmt.Sprint([]uint64{4, 5, 6, 7}) {
		t.Fatalf("segments %v after %d events (%v), want [4 5 6 7]", nums, total, err)
	}
	evs, err := ReadFlightDir(mem, "d/flight")
	if err != nil || len(evs) != 3*flightSegmentEvents+100 || evs[len(evs)-1].Seq != uint64(total) {
		t.Fatalf("tail after pruning: %d events (%v), want %d ending at %d", len(evs), err, 3*flightSegmentEvents+100, total)
	}
	contiguous(t, "tail after pruning", evs)
}

// TestFlightCrashedBootOutlivesNextRing: a boot that dies without Close
// leaves its final segment to the next boot, which prunes it only once it has
// written 1.5 rings of its own — never within its first ring.
func TestFlightCrashedBootOutlivesNextRing(t *testing.T) {
	mem := faultfs.NewMem()
	a, err := OpenFlightSink(mem, "d/flight")
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for ; seq < 3*DefaultFlightCapacity+10; seq++ {
		a.Append(opEvent(seq + 1))
	}
	nums, _ := FlightSegments(mem, "d/flight")
	finalA, lastA := nums[len(nums)-1], uint64(seq)
	// Boot A is abandoned, as a crash leaves it: no Close.

	b, err := OpenFlightSink(mem, "d/flight")
	if err != nil {
		t.Fatal(err)
	}
	has := func(num uint64) bool {
		nums, _ := FlightSegments(mem, "d/flight")
		return slices.Contains(nums, num)
	}
	for written := 1; written <= 2*DefaultFlightCapacity; written++ {
		seq++
		b.Append(opEvent(seq))
		switch written {
		case DefaultFlightCapacity:
			evs := decodeSegment(t, mem, "d/flight", finalA)
			if len(evs) != 10 || evs[len(evs)-1].Seq != lastA {
				t.Fatalf("after one ring of boot B, boot A's final segment decodes %d events, want 10 ending at %d", len(evs), lastA)
			}
		case 3 * flightSegmentEvents:
			if !has(finalA) {
				t.Fatalf("boot A's final segment pruned after boot B wrote only 1.5 rings")
			}
		case 3*flightSegmentEvents + 1:
			if has(finalA) {
				t.Fatalf("boot A's final segment outlived 1.5 rings of boot B")
			}
		}
	}
	if has(finalA) {
		t.Fatalf("boot A's final segment survived two rings of boot B")
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFlightRollCrashPoints cuts power after every fs op of both kinds of
// roll — the one in Open, on a directory an older binary left eight segments
// in, and the one half a ring later — under each keep policy. Close and
// ReadDir are no injection points (they write nothing), so the cut after the
// segment's sync stands for a cut at either. Every time, the flight dir must
// decode a contiguous run of seqs that holds the previous segment's events.
func TestFlightRollCrashPoints(t *testing.T) {
	const dir = "d/flight"
	older := faultfs.NewMem()
	seq := 0
	for num := uint64(1); num <= 8; num++ {
		evs := []FlightEvent{opEvent(seq + 1), opEvent(seq + 2)}
		seq += 2
		if err := older.WriteFile(path.Join(dir, flightSegName(num)), sinkSegment(t, evs), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	base := older.CrashImage(faultfs.KeepAll) // every segment durable
	first := seq + 1

	// boot opens a sink over fsys, writes half a ring, syncs it and appends
	// one event more, which rolls. Ops after a cut fail; the sink latches.
	boot := func(fsys faultfs.FS) {
		sink, err := OpenFlightSink(fsys, dir)
		if err != nil {
			return
		}
		for i := 0; i < flightSegmentEvents; i++ {
			sink.Append(opEvent(first + i))
		}
		sink.Sync()
		sink.Append(opEvent(first + flightSegmentEvents))
	}
	// A dry run numbers the ops. The Open's roll removes five segments and
	// opens one; after the sync, the second roll removes one, opens one and
	// writes the event that rolled.
	var kinds []faultfs.OpKind
	boot(faultfs.NewFaulty(base.CrashImage(faultfs.KeepAll), func(op faultfs.Op) *faultfs.Fault {
		if op.Index >= 0 {
			kinds = append(kinds, op.Kind)
		}
		return nil
	}))
	sync := len(kinds) - 4
	rolls := append(append([]faultfs.OpKind{}, kinds[:6]...), kinds[sync:]...)
	want := []faultfs.OpKind{faultfs.OpRemove, faultfs.OpRemove, faultfs.OpRemove, faultfs.OpRemove, faultfs.OpRemove, faultfs.OpOpen,
		faultfs.OpSync, faultfs.OpRemove, faultfs.OpOpen, faultfs.OpWrite}
	if !slices.Equal(rolls, want) {
		t.Fatalf("the rolls' ops are %v, want %v", rolls, want)
	}
	points := []int{0, 1, 2, 3, 4, 5, sync, sync + 1, sync + 2, sync + 3}

	policies := map[string]faultfs.KeepPolicy{"KeepNone": faultfs.KeepNone, "KeepAll": faultfs.KeepAll, "KeepHalf": faultfs.KeepHalf}
	for _, at := range points {
		for name, keep := range policies {
			mem := base.CrashImage(faultfs.KeepAll)
			boot(faultfs.NewFaulty(mem, faultfs.CrashAfter(at)))
			evs, err := ReadFlightDir(mem.CrashImage(keep), dir)
			if err != nil {
				t.Fatalf("cut after op %d, %s: %v", at, name, err)
			}
			what := fmt.Sprintf("cut after op %d, %s", at, name)
			contiguous(t, what, evs)
			// The previous segment: the older binary's last one while the
			// Open's roll runs, this boot's first once it has synced it.
			from, to := uint64(seq-1), uint64(seq)
			if at >= sync {
				from, to = uint64(first), uint64(first+flightSegmentEvents-1)
			}
			if len(evs) == 0 || evs[0].Seq > from || evs[len(evs)-1].Seq < to {
				t.Fatalf("%s: decoded %d events, want a run through seqs %d–%d", what, len(evs), from, to)
			}
		}
	}
}

// TestFlightDiskBudget runs more than 20 rings over seven boots — long ones,
// short ones, one of oversized events, some ending without Close — and checks
// the budget every quarter of a ring: flight/ never holds more than four segments or two rings of
// events, the byte backstop bounds every segment, the newest events decode
// contiguous through the last one written, and a boot of ordinary events
// keeps at least min(its events, 1.5 rings) of its own.
func TestFlightDiskBudget(t *testing.T) {
	const dir = "d/flight"
	boots := []struct {
		events           int
		oversized, crash bool // crash: the boot ends without Close
	}{
		{5*DefaultFlightCapacity + 17, false, false},
		{100, false, true},
		{DefaultFlightCapacity, true, false},
		{4*DefaultFlightCapacity + DefaultFlightCapacity/3, false, true},
		{3, false, false},
		{7 * DefaultFlightCapacity, false, false},
		{3 * DefaultFlightCapacity, false, true},
	}
	mem := faultfs.NewMem()
	seq, rings := 0, 0.0
	check := func(written int, oversized bool) {
		t.Helper()
		nums, err := FlightSegments(mem, dir)
		if err != nil || len(nums) > flightKeepSegments {
			t.Fatalf("seq %d: %d segments (%v), budget is %d", seq, len(nums), err, flightKeepSegments)
		}
		for _, num := range nums {
			if data, _ := mem.ReadFile(path.Join(dir, flightSegName(num))); len(data) > flightSegmentBytes {
				t.Fatalf("seq %d: segment %d holds %d bytes, backstop is %d", seq, num, len(data), flightSegmentBytes)
			}
		}
		evs, err := ReadFlightDir(mem, dir)
		if err != nil || len(evs) > 2*DefaultFlightCapacity || len(evs) == 0 || evs[len(evs)-1].Seq != uint64(seq) {
			t.Fatalf("seq %d: %d events decoded (%v), budget is %d, ending at the last written", seq, len(evs), err, 2*DefaultFlightCapacity)
		}
		contiguous(t, fmt.Sprintf("seq %d", seq), evs)
		if own := min(written, len(evs)); !oversized && own < min(written, 3*flightSegmentEvents) {
			t.Fatalf("seq %d: the boot wrote %d events and kept %d", seq, written, own)
		}
	}
	for _, b := range boots {
		sink, err := OpenFlightSink(mem, dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= b.events; i++ {
			seq++
			ev := opEvent(seq)
			if b.oversized {
				ev = maxEvent(seq)
			}
			sink.Append(ev)
			if i%(DefaultFlightCapacity/4) == 0 || i == b.events {
				check(i, b.oversized)
			}
		}
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		rings += float64(b.events) / DefaultFlightCapacity
		if !b.crash {
			sink.Close()
		}
	}
	if rings < 20 || len(boots) < 5 {
		t.Fatalf("ran %.1f rings over %d boots; the budget wants 20 over 5", rings, len(boots))
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
