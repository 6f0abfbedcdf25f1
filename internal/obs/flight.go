package obs

// The flight recorder is the vault's black box: an always-on, bounded ring
// of structured, PHI-free events (op kind, record token, trace ID,
// latency, outcome, fs/WAL/replication markers) that is also streamed
// through the faultfs seam into CRC-framed segments under <dir>/flight/.
// After a power cut the persisted tail is decodable offline — the segments
// use the one frame codec (internal/frame) and its tail rule: a torn final
// frame is discarded, never skipped over.
//
// PHI freedom is by construction, like /metrics and /debug/traces: record
// IDs are stored as tokens the vault computes (a truncated HMAC under a key
// derived from its master key, so only the vault can match one to an ID),
// event kinds and outcomes are fixed mechanism labels, and no field ever
// carries a record body, MRN, patient name, or search keyword. That is what
// makes it safe to write segments in plaintext next to the ciphertext they
// describe, and to serve the ring on an unauthenticated debug endpoint.
//
// Durability piggybacks on the WAL's: events for acknowledged writes are
// recorded after the WAL group commit's fsync returns, and segment writes
// are never fsynced on their own. Under the crash model (faultfs.Mem, ext4
// ordered mode) a file's unsynced tail survives only as a prefix, so any
// persisted acked-write event implies its WAL entry was already durable —
// the persisted flight tail can claim nothing recovery will not replay.
// The torture harness checks exactly that invariant after every simulated
// power cut.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
)

// FlightEvent is one entry in the flight recorder. All string fields are
// PHI-free by construction (see the package comment above).
type FlightEvent struct {
	Seq     uint64        // assigned by the ring, monotonic per Flight
	Time    time.Time     // assigned by the ring when zero
	Kind    string        // op or marker: "put", "get", "wal.wedge", "watchdog", "repl.apply", ...
	Record  string        // the vault's token for the record involved, or ""
	Trace   string        // originating trace ID, or ""
	Outcome string        // "ok", "denied", "error", ... ("" for markers)
	Dur     time.Duration // op latency (0 for markers)
	Shard   string        // shard label, or ""
	Detail  string        // short PHI-free detail (anomaly kind, error class)
}

// strs lists the event's string fields in wire order. It is the only list
// of them: the codec and every leak scan (via Strings) range over it, so a
// field added here is encoded, decoded and scanned, or none of the three.
func (ev *FlightEvent) strs() [6]*string {
	return [6]*string{&ev.Kind, &ev.Record, &ev.Trace, &ev.Outcome, &ev.Shard, &ev.Detail}
}

// Strings returns every string field of the event — what a plaintext-leak
// scan must cover.
func (ev FlightEvent) Strings() [6]string {
	var out [6]string
	for i, p := range ev.strs() {
		out[i] = *p
	}
	return out
}

// DefaultFlightCapacity is the ring size of DefaultFlight: enough tail to
// reconstruct the seconds before a crash without unbounded memory. It also
// sizes the tail a FlightSink keeps on disk: segments of half a ring, at
// most two rings of them (flightSegmentEvents, flightKeepSegments).
const DefaultFlightCapacity = 4096

// Flight is a bounded ring of FlightEvents, safe for concurrent use. A slot
// holds its event's v3 encoding (encodeFlightEvent, seq and time as deltas
// from 0) rather than the event: some 72 B resident where a FlightEvent took
// 152. Record reuses a slot's backing array, so once the ring has wrapped it
// allocates nothing; Snapshot decodes.
type Flight struct {
	mu  sync.Mutex
	buf [][]byte
	enc []byte // the event being encoded, reused
	n   int    // next write position
	len int
	seq uint64
}

// NewFlight returns a ring retaining the last capacity events.
func NewFlight(capacity int) *Flight {
	if capacity < 1 {
		capacity = 1
	}
	return &Flight{buf: make([][]byte, capacity)}
}

// DefaultFlight is the process-wide recorder, mirroring Default and
// DefaultTracer: every layer records into it unless wired otherwise.
var DefaultFlight = NewFlight(DefaultFlightCapacity)

// Record stores ev, assigning its sequence number (and timestamp, when
// zero), and returns the completed event so callers can persist the same
// bytes through a FlightSink. The ring cuts a string field longer than
// flightMaxStr, as the sink does; the returned event keeps it whole.
func (f *Flight) Record(ev FlightEvent) FlightEvent {
	f.mu.Lock()
	f.seq++
	ev.Seq = f.seq
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	f.enc = encodeFlightEvent(f.enc[:0], ev, int64(ev.Seq), ev.Time.UnixNano())
	slot := f.buf[f.n]
	if cap(slot) < len(f.enc) {
		slot = nil // a fresh array of the encoding's size class, not a doubling
	}
	f.buf[f.n] = append(slot[:0], f.enc...)
	f.n = (f.n + 1) % len(f.buf)
	if f.len < len(f.buf) {
		f.len++
	}
	f.mu.Unlock()
	return ev
}

// FlightFilter selects events from a ring snapshot. Zero values match
// everything; Kind matches as a case-folded substring (like TraceFilter.Op),
// Trace and Record match exactly. Limit caps the result (0 = all retained).
type FlightFilter struct {
	Kind   string
	Trace  string
	Record string
	Limit  int
}

// Match reports whether ev passes fl's Kind, Trace and Record; Limit is the
// caller's to apply.
func (fl FlightFilter) Match(ev FlightEvent) bool {
	if fl.Kind != "" && !strings.Contains(strings.ToLower(ev.Kind), strings.ToLower(fl.Kind)) {
		return false
	}
	if fl.Trace != "" && ev.Trace != fl.Trace {
		return false
	}
	if fl.Record != "" && ev.Record != fl.Record {
		return false
	}
	return true
}

// Snapshot returns the retained events matching fl, newest first. It copies
// the encodings under the lock and decodes them outside it.
func (f *Flight) Snapshot(fl FlightFilter) []FlightEvent {
	f.mu.Lock()
	size := 0
	for _, slot := range f.buf {
		size += len(slot)
	}
	data, ends := make([]byte, 0, size), make([]int, f.len)
	for i := range ends {
		// Walk backwards from the most recently written slot.
		data = append(data, f.buf[(f.n-1-i+len(f.buf))%len(f.buf)]...)
		ends[i] = len(data)
	}
	f.mu.Unlock()
	out := []FlightEvent{}
	start := 0
	for _, end := range ends {
		// The ring holds only what encodeFlightEvent wrote, cut to the caps
		// the decoder checks, so the decode cannot fail.
		ev, _ := decodeFlightEvent(data[start:end], 0, 0)
		start = end
		if !fl.Match(ev) {
			continue
		}
		out = append(out, ev)
		if fl.Limit > 0 && len(out) >= fl.Limit {
			break
		}
	}
	return out
}

// Len returns how many events the ring currently retains.
func (f *Flight) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.len
}

// --- binary event codec ----------------------------------------------------

// flightSegV3 is the magic byte a v3 segment opens with; it rides in the
// write of the segment's first event. What follows is frame.Var frames, one
// event each:
//
//	varint seqΔ | varint timeΔ | uvarint durNanos | word kind | token record |
//	token trace | word outcome | token shard | token detail
//
// (frame.AppendVarint, AppendUvarint, AppendWord, AppendToken). An event
// stores only what a reader of its segment cannot recompute: its seq and its
// Unix-nanosecond time are deltas from the previous event of the same
// segment (from 0 for a segment's first), so a segment still decodes on its
// own. Events reach a segment in append order, which is not always seq or
// time order (Flight.Record and FlightSink.Append are separate critical
// sections), so both deltas are signed. Kind and outcome are words of the
// flight vocabularies; record tokens and generated trace IDs are hex,
// which a token stores as raw bytes.
//
// Older segments open with the high byte of a u64 seq, 0x00: frame.Seq
// frames, each holding a v2 event (u8 2 | varint timeΔ | uvarint durNanos |
// 6 × token) or a v1 event (u8 1 | u64 seq | u64 unixnano | u64 durNanos |
// 6 × (u16 len + bytes)). Both still decode.
const (
	flightSegV3   = 0xF3
	flightEventV1 = 1
	flightEventV2 = 2
)

// flightKinds and flightOutcomes are the vocabularies of the kind and outcome
// words: every op the core envelope reports and every core outcome label
// (core's tests hold them to that), then the markers other layers record. A
// string outside them is spelled out after a 0 word. They are part of the
// format, so they only grow, at the end.
var (
	flightKinds = []string{
		"put", "get", "get_version", "history", "correct", "shred", "search",
		"place_hold", "release_hold", "break_glass", "audit_events", "provenance",
		"prove_version", "patient_records", "disclosures", "export", "import",
		"import_restored", "record_backed_up", "record_migrated_out", "verify_all",
		"sanitize", "repl.apply", "wal.wedge", "watchdog", "http.panic",
	}
	flightOutcomes = []string{
		"ok", "error", "closed", "wedged", "denied", "not_found", "shredded",
		"exists", "identity_changed", "tampered", "on_hold", "retention_active",
		"invalid", "anomaly", "panic",
	}
)

// flightWords gives each of the event's string fields, in strs order, the
// vocabulary its v3 word draws on; nil marks a token.
var flightWords = [6][]string{0: flightKinds, 3: flightOutcomes}

// flightMaxStr caps each string field on encode AND decode: encode truncates,
// decode rejects — a frame whose CRC validates but whose lengths are absurd
// is corruption the CRC missed, not a real event.
const flightMaxStr = 512

// encodeFlightEvent appends ev's v3 encoding to b: the one event codec of
// the ring and the segments. dSeq and dTime are its seq and Unix-nanosecond
// time less those of the segment's previous event, which the sink tracks; a
// ring slot stands alone, so the ring passes both whole.
func encodeFlightEvent(b []byte, ev FlightEvent, dSeq, dTime int64) []byte {
	b = frame.AppendVarint(b, dSeq)
	b = frame.AppendVarint(b, dTime)
	b = frame.AppendUvarint(b, uint64(ev.Dur))
	for i, p := range ev.strs() {
		s := *p
		if len(s) > flightMaxStr {
			s = s[:flightMaxStr]
		}
		if vocab := flightWords[i]; vocab != nil {
			b = frame.AppendWord(b, s, vocab)
		} else {
			b = frame.AppendToken(b, s)
		}
	}
	return b
}

// decodeFlightEvent parses one v3 event that follows an event of seq prevSeq
// at prevTime Unix nanoseconds. It is total: any input either yields an event
// or ok=false, never a panic — FuzzFlightSegment holds it to that.
func decodeFlightEvent(b []byte, prevSeq uint64, prevTime int64) (FlightEvent, bool) {
	r := frame.NewReader(b)
	ev := FlightEvent{Seq: prevSeq + uint64(r.Varint()), Time: time.Unix(0, prevTime+r.Varint()), Dur: time.Duration(r.Uvarint())}
	for i, dst := range ev.strs() {
		if vocab := flightWords[i]; vocab != nil {
			*dst = r.Word(vocab)
		} else {
			*dst = r.Token()
		}
		if len(*dst) > flightMaxStr {
			return FlightEvent{}, false
		}
	}
	return ev, r.Done() == nil
}

// decodeLegacyFlightEvent parses one v1 or v2 event, the seq-th of its
// segment, following an event at prev Unix nanoseconds. It is as total as
// decodeFlightEvent.
func decodeLegacyFlightEvent(b []byte, seq uint64, prev int64) (FlightEvent, bool) {
	r := frame.NewReader(b)
	var ev FlightEvent
	switch r.U8() {
	case flightEventV2:
		ev = FlightEvent{Seq: seq, Time: time.Unix(0, prev+r.Varint()), Dur: time.Duration(r.Uvarint())}
		for _, dst := range ev.strs() {
			if *dst = r.Token(); len(*dst) > flightMaxStr {
				return FlightEvent{}, false
			}
		}
	case flightEventV1:
		ev = FlightEvent{Seq: r.U64(), Time: time.Unix(0, int64(r.U64())), Dur: time.Duration(r.U64())}
		var buf [flightMaxStr]byte
		for _, dst := range ev.strs() {
			n := int(r.U16())
			if n > flightMaxStr {
				return FlightEvent{}, false
			}
			r.Fixed(buf[:n])
			*dst = string(buf[:n])
		}
	default:
		return FlightEvent{}, false
	}
	return ev, ev.Seq == seq && r.Done() == nil
}

// --- persistent segments ---------------------------------------------------

const (
	flightSegPrefix = "flight-"
	flightSegSuffix = ".seg"
	// The on-disk tail follows the ring, even in a process that is never
	// restarted: a sink rolls to the next numbered segment once the current
	// one holds half a ring, and every roll (the one in Open included) prunes
	// down to the newest four segments — at most two rings of events. So a
	// boot that has written 1.5 rings keeps at least its newest 1.5 rings,
	// and a crashed boot's final segment survives until the next boot has.
	flightSegmentEvents = DefaultFlightCapacity / 2
	flightKeepSegments  = 2 * DefaultFlightCapacity / flightSegmentEvents
	// flightSegmentBytes is a backstop for oversized events only: half a
	// ring of ordinary events (~32 B each) is 64 KiB, of maximal ones (~3 KiB)
	// 6 MiB, which it cuts to 1 MiB a segment, 4 MiB a shard.
	flightSegmentBytes = 1 << 20
)

// FlightSink persists events as CRC-framed segments under dir through the
// faultfs seam. Every Open starts a fresh numbered segment, so the tail of
// the highest-numbered segment is always the final moments of one boot.
//
// The sink is strictly best-effort: the first write failure latches it off
// and is reported via Err — observability must never fail the operation it
// observes. Writes are not fsynced; see the package comment for why the
// persisted tail still cannot overclaim acknowledged writes.
type FlightSink struct {
	mu   sync.Mutex
	fs   faultfs.FS
	dir  string
	f    faultfs.File
	n    int    // events written to the current segment
	size int64  // bytes written to the current segment
	seq  uint64 // seq of its last event; 0 before the first
	last int64  // Unix nanoseconds of its last event; 0 before the first
	body []byte // the event being encoded, reused
	buf  []byte // the bytes of one write, reused
	err  error
}

func flightSegName(n uint64) string {
	return fmt.Sprintf("%s%08d%s", flightSegPrefix, n, flightSegSuffix)
}

// flightSegNum parses a segment file name; ok is false for foreign files.
func flightSegNum(name string) (uint64, bool) {
	if !strings.HasPrefix(name, flightSegPrefix) || !strings.HasSuffix(name, flightSegSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(flightSegPrefix):len(name)-len(flightSegSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// FlightSegments returns the numbers of the segments under dir, ascending.
// A missing dir is an empty list.
func FlightSegments(fsys faultfs.FS, dir string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		if _, statErr := fsys.Stat(dir); statErr != nil {
			return nil, nil
		}
		return nil, err
	}
	var nums []uint64
	for _, e := range ents {
		if n, ok := flightSegNum(e.Name()); ok && !e.IsDir() {
			nums = append(nums, n)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums, nil
}

// OpenFlightSink creates dir if needed, prunes old segments down to the
// retention bound, and opens the next numbered segment for appending.
func OpenFlightSink(fsys faultfs.FS, dir string) (*FlightSink, error) {
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("obs: creating flight dir %s: %w", dir, err)
	}
	s := &FlightSink{fs: fsys, dir: dir}
	if err := s.roll(); err != nil {
		return nil, err
	}
	return s, nil
}

// roll closes the current segment, if any, prunes the oldest segments down
// to the retention bound, and opens the next numbered one. Caller holds s.mu
// (or owns s exclusively).
func (s *FlightSink) roll() error {
	if s.f != nil {
		_ = s.f.Close()
		s.f = nil
	}
	nums, err := FlightSegments(s.fs, s.dir)
	if err != nil {
		return fmt.Errorf("obs: listing flight dir %s: %w", s.dir, err)
	}
	next := uint64(1)
	if len(nums) > 0 {
		next = nums[len(nums)-1] + 1
	}
	for len(nums) >= flightKeepSegments {
		// Prune failures are non-fatal: a leftover segment wastes bytes, it
		// does not corrupt anything.
		_ = s.fs.Remove(path.Join(s.dir, flightSegName(nums[0])))
		nums = nums[1:]
	}
	f, err := s.fs.OpenFile(path.Join(s.dir, flightSegName(next)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("obs: opening flight segment: %w", err)
	}
	s.f, s.n, s.size, s.seq, s.last = f, 0, 0, 0, 0
	return nil
}

// Append frames and writes one event, rolling to a new segment first when
// this one holds half a ring or the event would take it past the byte
// backstop; the first event of a segment carries its magic byte in the same
// write. Failures latch the sink off silently; the caller's operation must
// not care.
func (s *FlightSink) Append(ev FlightEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.f == nil {
		return
	}
	s.frame(ev)
	if s.n >= flightSegmentEvents || (s.size > 0 && s.size+int64(len(s.buf)) > flightSegmentBytes) {
		if s.err = s.roll(); s.err != nil {
			return
		}
		s.frame(ev) // a segment's first event is stored whole
	}
	if _, err := s.f.Write(s.buf); err != nil {
		s.err = err
		return
	}
	s.n++
	s.size += int64(len(s.buf))
	s.seq, s.last = ev.Seq, ev.Time.UnixNano()
}

// frame encodes ev as the next event of the current segment into s.buf.
func (s *FlightSink) frame(ev FlightEvent) {
	s.body = encodeFlightEvent(s.body[:0], ev, int64(ev.Seq-s.seq), ev.Time.UnixNano()-s.last)
	s.buf = s.buf[:0]
	if s.size == 0 {
		s.buf = append(s.buf, flightSegV3)
	}
	s.buf = frame.Var.Append(s.buf, 0, s.body)
}

// Err returns the latched failure that disabled the sink, if any.
func (s *FlightSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Sync forces the current segment to stable storage — postmortem writers
// call it so the bundle's flight tail survives the imminent exit.
func (s *FlightSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.f == nil {
		return s.err
	}
	return s.f.Sync()
}

// Close closes the segment file; further Appends are dropped.
func (s *FlightSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	if s.err == nil {
		s.err = fmt.Errorf("obs: flight sink closed")
	}
	return err
}

// --- offline decoding ------------------------------------------------------

// DecodeFlightSegment decodes events from one segment's raw bytes, either
// layout, stopping at the first torn or corrupt frame (frame.Walk's tail
// rule) or the first frame that is not a flight event. tail is the count of
// trailing bytes that did not decode — 0 means the segment was consumed
// exactly. The decoder is total over arbitrary input: it never panics,
// whatever the bytes.
func DecodeFlightSegment(data []byte) (evs []FlightEvent, tail int) {
	var seq uint64
	var last int64
	keep := func(ev FlightEvent, ok bool) error {
		if !ok {
			return frame.ErrInvalid // its CRC holds, but it is no flight event
		}
		evs, seq, last = append(evs, ev), ev.Seq, ev.Time.UnixNano()
		return nil
	}
	if len(data) > 0 && data[0] == flightSegV3 {
		valid, _ := frame.Var.Walk(data[1:], func(_ int, _ uint64, body []byte) error {
			return keep(decodeFlightEvent(body, seq, last))
		})
		return evs, len(data) - 1 - valid
	}
	valid, _ := frame.Seq.Walk(data, func(_ int, frameSeq uint64, body []byte) error {
		return keep(decodeLegacyFlightEvent(body, frameSeq, last))
	})
	return evs, len(data) - valid
}

// ReadFlightDir decodes every segment under dir, oldest segment first,
// tolerating a torn tail in each (a crash can tear the last frame of the
// final segment; earlier segments were closed whole, but the rule is applied
// uniformly). A missing dir yields no events and no error.
func ReadFlightDir(fsys faultfs.FS, dir string) ([]FlightEvent, error) {
	nums, err := FlightSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	var out []FlightEvent
	for _, n := range nums {
		data, err := fsys.ReadFile(path.Join(dir, flightSegName(n)))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // raced with pruning
			}
			return nil, err
		}
		evs, _ := DecodeFlightSegment(data)
		out = append(out, evs...)
	}
	return out, nil
}
