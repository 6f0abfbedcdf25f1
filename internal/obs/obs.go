// Package obs is MedVault's dependency-free observability layer: a metrics
// registry of atomic counters, gauges, and fixed-bucket latency histograms.
//
// The paper's central tension is security versus performance — every
// mechanism it requires (encryption, integrity commitments, audit trails,
// durable logging) costs time on the write and read paths. This package
// makes those costs first-class measurements instead of prose: each layer
// of the vault records what it spends (crypto seal/open, index updates,
// audit appends, WAL fsyncs, blockstore I/O) into a shared registry, and
// the totals are exposed in Prometheus text format over HTTP and as a
// per-mechanism breakdown in cmd/medbench.
//
// The package deliberately has no dependencies outside the standard
// library, so every other package — including the lowest storage layers —
// can import it without cycles.
package obs

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension (a Prometheus label pair).
type Label struct{ Key, Value string }

// L builds a Label; it keeps instrumentation call sites short.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// LatencyBuckets are the default histogram bounds for operation latencies,
// in seconds: 10µs up to 10s, roughly logarithmic. The range spans an
// in-memory map hit at the bottom and a slow fsync or full verification
// sweep at the top.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing counter. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution with an atomic hot path. Bounds
// are inclusive upper limits in ascending order; observations above the last
// bound land in an implicit +Inf bucket.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	ex      *exemplarSlot // family-shared worst-observation exemplar; may be nil
}

// Exemplar links a histogram family to the trace behind its worst
// observation since the exemplar was last taken (i.e. since the last
// /metrics scrape) — the "which request was that spike" pointer.
type Exemplar struct {
	Trace string
	Value float64
}

// exemplarSlot is the family-level slot ObserveExemplar competes for. A
// plain mutex is fine: it is only touched on the exemplar path, and only
// contended when observations race the scrape.
type exemplarSlot struct {
	mu    sync.Mutex
	trace string
	val   float64
	set   bool
}

func (e *exemplarSlot) observe(v float64, trace string) {
	if e == nil || trace == "" {
		return
	}
	e.mu.Lock()
	if !e.set || v > e.val {
		e.trace, e.val, e.set = trace, v, true
	}
	e.mu.Unlock()
}

// peek reads without resetting (debug surfaces).
func (e *exemplarSlot) peek() (Exemplar, bool) {
	if e == nil {
		return Exemplar{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return Exemplar{Trace: e.trace, Value: e.val}, e.set
}

// take reads and resets — the scrape semantics: each /metrics scrape sees
// the worst observation since the previous one.
func (e *exemplarSlot) take() (Exemplar, bool) {
	if e == nil {
		return Exemplar{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ex, ok := Exemplar{Trace: e.trace, Value: e.val}, e.set
	e.trace, e.val, e.set = "", 0, false
	return ex, ok
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// ObserveExemplar records v like Observe and, when traceID is non-empty,
// offers it as the family's exemplar: the trace ID of the worst observation
// since the last scrape is retained and surfaced on /metrics and
// /debug/traces. Latency-histogram call sites that have a trace in hand use
// this instead of Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	h.ex.observe(v, traceID)
}

// Snapshot returns a consistent-enough copy for reporting. Individual fields
// are loaded atomically; a snapshot taken during concurrent observation may
// be mid-update by one observation, which is acceptable for monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]uint64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds  []float64 // inclusive upper bounds, ascending
	Buckets []uint64  // per-bucket (non-cumulative) counts; len(Bounds)+1
	Count   uint64
	Sum     float64
}

// Mean returns the average observed value, or 0 for an empty histogram.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket containing the target rank — the same estimate
// Prometheus's histogram_quantile computes. Observations in the overflow
// bucket are reported as the largest finite bound.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Buckets {
		prev := float64(cum)
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) { // overflow bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Merge returns the element-wise sum of two snapshots with identical bounds;
// it panics on mismatched bounds (a programming error). Used to aggregate
// the series of one family into a single distribution.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	if len(s.Bounds) == 0 {
		return o
	}
	if len(o.Bounds) == 0 {
		return s
	}
	if len(s.Bounds) != len(o.Bounds) {
		panic("obs: merging histograms with different bucket layouts")
	}
	out := HistSnapshot{Bounds: s.Bounds, Buckets: make([]uint64, len(s.Buckets)), Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	for i := range s.Buckets {
		out.Buckets[i] = s.Buckets[i] + o.Buckets[i]
	}
	return out
}

// --- registry ---

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family; exactly one of c/g/h is
// set, matching the family kind.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all label-variants of one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	bounds []float64     // histogram families only
	ex     *exemplarSlot // histogram families only; shared by every series

	mu     sync.RWMutex
	series map[string]*series // by label signature
}

// Registry holds metric families. All methods are safe for concurrent use;
// metric handles returned from it are lock-free on the hot path.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// Default is the process-wide registry every vault layer records into, in
// the way the Prometheus client's default registerer works. Tests that need
// isolation construct their own Registry.
var Default = NewRegistry()

func (r *Registry) family(name, help string, k kind, bounds []float64) *family {
	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.fams[name]
		if f == nil {
			f = &family{name: name, help: help, kind: k, bounds: bounds, series: make(map[string]*series)}
			if k == kindHistogram {
				f.ex = &exemplarSlot{}
			}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != k {
		panic("obs: metric " + name + " re-registered as " + k.String() + ", was " + f.kind.String())
	}
	return f
}

// get returns the series for a label set, creating it on first use. The
// canonical key sorts the labels by key, so the same set in any order names
// the same series. The key is built in stack buffers, and the compiler does
// not copy a byte slice converted for a map index, so a lookup that finds
// its series allocates nothing; that is why no caller caches handles. Only a
// new series, or a label set too large for the buffers, touches the heap.
func (f *family) get(labels []Label) *series {
	var lbuf [8]Label
	var sbuf [256]byte
	sorted := append(lbuf[:0], labels...)
	slices.SortStableFunc(sorted, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	sig := sbuf[:0]
	for _, l := range sorted {
		sig = append(sig, l.Key...)
		sig = append(sig, 0x1f)
		sig = append(sig, l.Value...)
		sig = append(sig, 0x1e)
	}
	f.mu.RLock()
	s := f.series[string(sig)]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[string(sig)]; s != nil {
		return s
	}
	s = &series{labels: append([]Label(nil), sorted...)}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.bounds)
		s.h.ex = f.ex
	}
	f.series[string(sig)] = s
	return s
}

// Counter returns (creating on first use) the counter for name and labels.
// help is recorded the first time the family is seen.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.family(name, help, kindCounter, nil).get(labels).c
}

// Gauge returns the gauge for name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.family(name, help, kindGauge, nil).get(labels).g
}

// Histogram returns the histogram for name and labels. bounds applies on
// first registration of the family; later calls reuse the existing layout.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.family(name, help, kindHistogram, bounds).get(labels).h
}

// SeriesSnapshot is one labeled series in a snapshot. Value carries counter
// and gauge readings; Hist is set for histogram families.
type SeriesSnapshot struct {
	Labels []Label
	Value  float64
	Hist   *HistSnapshot
}

// FamilySnapshot is a point-in-time copy of one metric family. Exemplar is
// a non-resetting peek at the family's worst-since-last-scrape trace; only
// the /metrics scrape itself (WritePrometheus) resets it.
type FamilySnapshot struct {
	Name     string
	Help     string
	Kind     string
	Series   []SeriesSnapshot
	Exemplar *Exemplar
}

// MergedHist aggregates every series of a histogram family into one
// distribution. ok is false for non-histogram or empty families.
func (f FamilySnapshot) MergedHist() (HistSnapshot, bool) {
	if f.Kind != "histogram" || len(f.Series) == 0 {
		return HistSnapshot{}, false
	}
	out := *f.Series[0].Hist
	for _, s := range f.Series[1:] {
		out = out.Merge(*s.Hist)
	}
	return out, true
}

// Total sums Value across every series of a counter or gauge family.
func (f FamilySnapshot) Total() float64 {
	var t float64
	for _, s := range f.Series {
		t += s.Value
	}
	return t
}

// Snapshot copies the registry's current state, families sorted by name and
// series by label signature, for reporting and exposition.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		if ex, ok := f.ex.peek(); ok {
			fs.Exemplar = &ex
		}
		f.mu.RLock()
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := f.series[sig]
			ss := SeriesSnapshot{Labels: s.labels}
			switch f.kind {
			case kindCounter:
				ss.Value = float64(s.c.Value())
			case kindGauge:
				ss.Value = s.g.Value()
			case kindHistogram:
				h := s.h.Snapshot()
				ss.Hist = &h
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.RUnlock()
		out = append(out, fs)
	}
	return out
}
