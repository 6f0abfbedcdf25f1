// Request-scoped tracing. Where the metrics registry answers "what does each
// mechanism cost in aggregate?", a trace answers "where did THIS operation's
// time go": every vault operation carries a Trace through context.Context,
// and core records a Span for each compliance mechanism it crosses — crypto
// seal/open, key store, index update/search, WAL enqueue/commit, Merkle
// append/proof, audit append. The trace ID is stamped into the operation's
// tamper-evident audit entry, so the compliance record and the performance
// record reference each other: a reviewer goes from "who touched record X"
// to "what the system did, step by step, and how long each step took".
//
// Completed traces land in a bounded ring buffer, each as one compact byte
// string (encodeTrace) that Snapshot decodes. Traces at or above the slow
// threshold are pinned in a ring of their own, so fast traffic can never
// evict the interesting outliers. Span durations also feed the shared metrics
// registry (medvault_span_seconds by span name), so /metrics and
// /debug/traces agree about where time goes.
//
// The zero cost path matters: StartSpan on a context without a trace returns
// a nil *Span, and every Span method is nil-safe, so un-traced callers (the
// simulator, the torture harness, library users) pay one context lookup and
// nothing else.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"medvault/internal/frame"
)

// Default tracing policy: the most recent fast traces and the most recent
// slow ones, in bounded memory.
const (
	DefaultTraceCapacity = 512
	DefaultSlowCapacity  = 128
	DefaultSlowThreshold = 25 * time.Millisecond
)

// Span is one step of a traced operation: a named, timed interval with
// optional attributes, an error, and nested children. Spans are created with
// StartSpan and closed with End; a span still open when its trace finishes is
// closed by the tracer and marked unfinished.
type Span struct {
	Name     string
	Start    time.Time
	Dur      time.Duration
	Err      string
	Attrs    []Label
	Children []*Span

	tr    *Trace // owning trace; nil only on the no-op span
	ended bool
}

// Trace is the record of one operation: an ID, the operation name, and the
// span tree its mechanisms recorded. A Trace is mutable until Finish; after
// Finish it is immutable and safe to read without locks.
type Trace struct {
	ID    string
	Op    string
	Start time.Time
	Dur   time.Duration
	Err   string
	Slow  bool
	Spans []*Span

	mu       sync.Mutex
	finished bool
}

// ctxKey carries the pair (trace, current parent span) through a context.
type ctxKey struct{}

type ctxVal struct {
	tr     *Trace
	parent *Span // nil means children attach at the trace root
}

// TracerConfig bounds a Tracer. Zero values select the defaults above.
type TracerConfig struct {
	Capacity      int           // retained fast traces
	SlowCapacity  int           // pinned slow traces
	SlowThreshold time.Duration // traces at/above this duration are pinned
}

// Tracer creates traces, collects finished ones, and serves snapshots.
// All methods are safe for concurrent use.
type Tracer struct {
	cfg      TracerConfig
	started  atomic.Uint64
	finished atomic.Uint64

	mu     sync.Mutex // guards the two rings
	recent [][]byte   // fast traces as encodeTrace wrote them, ring of cfg.Capacity
	rPos   int
	slow   [][]byte // pinned slow traces, ring of cfg.SlowCapacity
	sPos   int
}

// NewTracer returns a Tracer with cfg (zero fields take defaults).
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultTraceCapacity
	}
	if cfg.SlowCapacity <= 0 {
		cfg.SlowCapacity = DefaultSlowCapacity
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	return &Tracer{cfg: cfg}
}

// DefaultTracer is the process-wide tracer, mirroring obs.Default for
// metrics: the HTTP layer starts traces here and /debug/traces reads them.
var DefaultTracer = NewTracer(TracerConfig{})

// newTraceID returns a fresh 16-hex-char trace ID.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively fatal elsewhere (key generation);
		// for a debug identifier a degenerate constant is acceptable.
		return "trace-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// Start begins a trace for op under a freshly minted ID and returns a
// context carrying the trace for StartSpan calls below. The caller must pass
// the trace to Finish exactly once. id is not read: the ID reaches the audit
// log, the flight segments, /debug/traces and the /metrics exemplars, so no
// caller-chosen string — a client's request ID may well be an MRN — is ever
// adopted as one.
func (t *Tracer) Start(ctx context.Context, op, id string) (context.Context, *Trace) {
	tr := &Trace{ID: newTraceID(), Op: op, Start: time.Now()}
	t.started.Add(1)
	return context.WithValue(ctx, ctxKey{}, &ctxVal{tr: tr}), tr
}

// Finish seals the trace — closing any spans left open (a cancelled or
// panicking operation must not leak half-recorded spans), computing the
// duration, feeding the span histograms — and retains its encoding in the
// fast or the slow ring. The caller's tr keeps its tree.
func (t *Tracer) Finish(tr *Trace, err error) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return
	}
	end := time.Now()
	tr.Dur = end.Sub(tr.Start)
	if err != nil {
		tr.Err = err.Error()
	}
	closeOpen(tr.Spans, end)
	tr.Slow = tr.Dur >= t.cfg.SlowThreshold
	tr.finished = true
	tr.mu.Unlock()

	observeSpans(tr.Spans, tr.ID)
	t.finished.Add(1)
	var scratch [512]byte // on the stack: the ring's exact-size copy is the one allocation
	enc := slices.Clone(encodeTrace(scratch[:0], tr))
	t.mu.Lock()
	if tr.Slow {
		t.slow, t.sPos = ringPut(t.slow, t.sPos, t.cfg.SlowCapacity, enc)
	} else {
		t.recent, t.rPos = ringPut(t.recent, t.rPos, t.cfg.Capacity, enc)
	}
	t.mu.Unlock()
}

// ringPut appends enc to a bounded ring, growing until capacity then
// overwriting the oldest slot.
func ringPut(ring [][]byte, pos, capacity int, enc []byte) ([][]byte, int) {
	if len(ring) < capacity {
		return append(ring, enc), pos
	}
	ring[pos] = enc
	return ring, (pos + 1) % capacity
}

// encodeTrace appends a sealed trace to b. The layout is in-memory only —
// nothing persists it — so it carries no version:
//
//	token ID | varstr op | varint start | uvarint dur | varstr err | u8 slow |
//	spans
//
// where start is Unix nanoseconds and spans is a uvarint count and then,
// for each span, varstr name | varint start less the trace's | uvarint dur |
// varstr err | uvarint count and that many varstr key, value pairs |
// children as spans.
func encodeTrace(b []byte, tr *Trace) []byte {
	start := tr.Start.UnixNano()
	b = frame.AppendToken(b, tr.ID)
	b = frame.AppendVarStr(b, tr.Op)
	b = frame.AppendVarint(b, start)
	b = frame.AppendUvarint(b, uint64(tr.Dur))
	b = frame.AppendVarStr(b, tr.Err)
	slow := byte(0)
	if tr.Slow {
		slow = 1
	}
	return appendSpans(append(b, slow), tr.Spans, start)
}

func appendSpans(b []byte, spans []*Span, start int64) []byte {
	b = frame.AppendUvarint(b, uint64(len(spans)))
	for _, s := range spans {
		b = frame.AppendVarStr(b, s.Name)
		b = frame.AppendVarint(b, s.Start.UnixNano()-start)
		b = frame.AppendUvarint(b, uint64(s.Dur))
		b = frame.AppendVarStr(b, s.Err)
		b = frame.AppendUvarint(b, uint64(len(s.Attrs)))
		for _, a := range s.Attrs {
			b = frame.AppendVarStr(frame.AppendVarStr(b, a.Key), a.Value)
		}
		b = appendSpans(b, s.Children, start)
	}
	return b
}

// decodeTraceHead reads what Snapshot filters on from an encodeTrace
// encoding: a finished trace without its spans, and a reader at them.
func decodeTraceHead(b []byte) (*Trace, *frame.Reader) {
	r := frame.NewReader(b)
	tr := &Trace{ID: r.Token(), Op: r.VarStr(), Start: time.Unix(0, r.Varint()), Dur: time.Duration(r.Uvarint()),
		Err: r.VarStr(), Slow: r.U8() == 1, finished: true}
	return tr, r
}

// readSpans reads the spans of tr that appendSpans wrote, ended and owned
// by tr, so every Span method on them is the no-op a finished trace's is.
func readSpans(r *frame.Reader, tr *Trace) []*Span {
	n := r.Uvarint()
	if n == 0 {
		return nil
	}
	start := tr.Start.UnixNano()
	spans := make([]*Span, n)
	for i := range spans {
		s := &Span{Name: r.VarStr(), Start: time.Unix(0, start+r.Varint()), Dur: time.Duration(r.Uvarint()),
			Err: r.VarStr(), tr: tr, ended: true}
		if k := r.Uvarint(); k > 0 {
			s.Attrs = make([]Label, k)
			for j := range s.Attrs {
				s.Attrs[j] = Label{Key: r.VarStr(), Value: r.VarStr()}
			}
		}
		s.Children = readSpans(r, tr)
		spans[i] = s
	}
	return spans
}

// closeOpen ends every still-open span in the tree at end time, marking it
// unfinished. Caller holds the trace lock.
func closeOpen(spans []*Span, end time.Time) {
	for _, s := range spans {
		if !s.ended {
			s.Dur = end.Sub(s.Start)
			if s.Err == "" {
				s.Err = "unfinished"
			}
			s.ended = true
		}
		closeOpen(s.Children, end)
	}
}

// observeSpans feeds each span's duration into the shared registry,
// offering the owning trace's ID as the slow-span exemplar.
func observeSpans(spans []*Span, traceID string) {
	for _, s := range spans {
		Default.Histogram("medvault_span_seconds",
			"Traced span latency by span name.", LatencyBuckets,
			L("span", s.Name)).ObserveExemplar(s.Dur.Seconds(), traceID)
		observeSpans(s.Children, traceID)
	}
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if v, ok := ctx.Value(ctxKey{}).(*ctxVal); ok {
		return v.tr
	}
	return nil
}

// TraceID returns the trace ID carried by ctx, or "" when untraced. Core
// stamps it into audit events; the HTTP layer echoes it as X-Request-ID.
func TraceID(ctx context.Context) string {
	if tr := TraceFrom(ctx); tr != nil {
		return tr.ID
	}
	return ""
}

// StartSpan opens a child span under the context's current span (or at the
// trace root) and returns a context in which further spans nest below it.
// On an untraced context it returns (ctx, nil); all Span methods are
// nil-safe, so instrumented call sites need no branching.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	v, ok := ctx.Value(ctxKey{}).(*ctxVal)
	if !ok || v.tr == nil {
		return ctx, nil
	}
	s := &Span{Name: name, Start: time.Now(), tr: v.tr}
	v.tr.mu.Lock()
	if v.tr.finished {
		// A span started after its trace finished (e.g. a stray goroutine)
		// is recorded nowhere rather than racing the immutable trace.
		v.tr.mu.Unlock()
		return ctx, nil
	}
	if v.parent != nil {
		v.parent.Children = append(v.parent.Children, s)
	} else {
		v.tr.Spans = append(v.tr.Spans, s)
	}
	v.tr.mu.Unlock()
	return context.WithValue(ctx, ctxKey{}, &ctxVal{tr: v.tr, parent: s}), s
}

// SetAttr attaches a key/value attribute. Attribute values must never carry
// PHI — /debug/traces is an unauthenticated surface like /metrics; sizes,
// sequence numbers, and outcomes only.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended && !s.tr.finished {
		s.Attrs = append(s.Attrs, Label{Key: key, Value: value})
	}
	s.tr.mu.Unlock()
}

// SetUint is SetAttr for a number, formatted only on a live span.
func (s *Span) SetUint(key string, n uint64) {
	if s != nil {
		s.SetAttr(key, strconv.FormatUint(n, 10))
	}
}

// End closes the span, recording the elapsed time and the error, if any.
// Ending twice, or ending after the trace finished, is a no-op.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended && !s.tr.finished {
		s.Dur = time.Since(s.Start)
		if err != nil {
			s.Err = err.Error()
		}
		s.ended = true
	}
	s.tr.mu.Unlock()
}

// TraceFilter selects traces for a snapshot. Zero values match everything.
type TraceFilter struct {
	Op     string        // case-folded substring match against Trace.Op
	MinDur time.Duration // only traces at least this long
	Limit  int           // max traces returned (0 = all retained)
}

// Snapshot returns retained finished traces matching f, newest first. It
// takes the ring's encodings under the lock — a stored encoding is never
// written again — and decodes outside it, a span tree only for a trace it
// returns. The returned traces are finished and therefore immutable;
// callers may read them freely.
func (t *Tracer) Snapshot(f TraceFilter) []*Trace {
	t.mu.Lock()
	encs := append(slices.Clone(t.recent), t.slow...)
	t.mu.Unlock()
	type head struct {
		tr    *Trace
		spans *frame.Reader
	}
	heads := make([]head, len(encs))
	for i, enc := range encs {
		heads[i].tr, heads[i].spans = decodeTraceHead(enc)
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i].tr.Start.After(heads[j].tr.Start) })
	op := strings.ToLower(f.Op)
	kept := []*Trace{}
	for _, h := range heads {
		if !strings.Contains(strings.ToLower(h.tr.Op), op) {
			continue
		}
		if h.tr.Dur < f.MinDur {
			continue
		}
		h.tr.Spans = readSpans(h.spans, h.tr)
		kept = append(kept, h.tr)
		if f.Limit > 0 && len(kept) >= f.Limit {
			break
		}
	}
	return kept
}

// Stats reports tracer volume counters: traces started and finished.
func (t *Tracer) Stats() (started, finished uint64) {
	return t.started.Load(), t.finished.Load()
}

// SpanCount returns the number of spans in the trace, all levels included.
// Valid on finished traces.
func (tr *Trace) SpanCount() int { return countSpans(tr.Spans) }

func countSpans(spans []*Span) int {
	n := len(spans)
	for _, s := range spans {
		n += countSpans(s.Children)
	}
	return n
}
