package obs

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops", L("op", "put"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels (any order) must return the same instance.
	if r.Counter("ops_total", "ops", L("op", "put")) != c {
		t.Error("counter not memoized")
	}
	c2 := r.Counter("ops_total", "ops", L("op", "get"))
	if c2 == c {
		t.Error("distinct label sets share a counter")
	}

	g := r.Gauge("live", "live records")
	g.Set(10)
	g.Add(-3.5)
	if got := g.Value(); got != 6.5 {
		t.Errorf("gauge = %v, want 6.5", got)
	}
}

// TestLookupHitAllocatesNothing pins the property that lets every layer
// resolve its series by name on every operation: a lookup that finds an
// existing series allocates nothing.
func TestLookupHitAllocatesNothing(t *testing.T) {
	r, b := NewRegistry(), LatencyBuckets
	for n, lookup := range map[string]func(){
		"counter/0": func() { r.Counter("c", "").Inc() },
		"counter/1": func() { r.Counter("c", "", L("op", "get")).Inc() },
		"counter/2": func() { r.Counter("c", "", L("outcome", "ok"), L("op", "get")).Inc() },
		"counter/3": func() { r.Counter("c", "", L("shard", "3"), L("op", "get"), L("outcome", "ok")).Inc() },
		"gauge/0":   func() { r.Gauge("g", "").Set(1) },
		"gauge/1":   func() { r.Gauge("g", "", L("cache", "dek")).Set(1) },
		"gauge/2":   func() { r.Gauge("g", "", L("cache", "dek"), L("shard", "0")).Set(1) },
		"gauge/3":   func() { r.Gauge("g", "", L("shard", "0"), L("cache", "dek"), L("kind", "x")).Set(1) },
		"hist/0":    func() { r.Histogram("h", "", b).Observe(1) },
		"hist/1":    func() { r.Histogram("h", "", b, L("span", "core.get")).Observe(1) },
		"hist/2":    func() { r.Histogram("h", "", b, L("op", "get"), L("outcome", "ok")).Observe(1) },
		"hist/3":    func() { r.Histogram("h", "", b, L("shard", "1"), L("op", "get"), L("outcome", "ok")).Observe(1) },
	} {
		lookup() // the miss that creates the series
		if got := testing.AllocsPerRun(100, lookup); got != 0 {
			t.Errorf("%s: a hit allocates %v times, want 0", n, got)
		}
	}
}

// TestLabelOrderIrrelevant checks that one label set in every order is one
// handle and one series, including a set too large for the lookup's stack
// buffers.
func TestLabelOrderIrrelevant(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("a", "1"), L("b", "2"), L("c", "3"))
	for _, order := range [][]Label{
		{L("c", "3"), L("a", "1"), L("b", "2")},
		{L("b", "2"), L("c", "3"), L("a", "1")},
	} {
		if r.Counter("x_total", "", order...) != a {
			t.Errorf("label order %v changed series identity", order)
		}
	}
	var big []Label
	for i := 0; i < 12; i++ {
		big = append(big, L(fmt.Sprintf("k%02d", i), strings.Repeat("v", 40)))
	}
	h := r.Histogram("big_seconds", "", LatencyBuckets, big...)
	reversed := slices.Clone(big)
	slices.Reverse(reversed)
	if r.Histogram("big_seconds", "", LatencyBuckets, reversed...) != h {
		t.Error("a label set larger than the stack buffers resolved to another handle")
	}
	for _, f := range r.Snapshot() {
		want := map[string]int{"x_total": 3, "big_seconds": 12}[f.Name]
		if len(f.Series) != 1 || len(f.Series[0].Labels) != want {
			t.Errorf("%s: %d series, want one with %d labels", f.Name, len(f.Series), want)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.001, 0.01, 0.1, 1})
	// 100 observations spread evenly through the 0.001–0.01 bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.005)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if math.Abs(s.Mean()-0.005) > 1e-9 {
		t.Errorf("mean = %v, want 0.005", s.Mean())
	}
	// All mass is in (0.001, 0.01]; interpolation stays inside the bucket.
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := s.Quantile(q)
		if v <= 0.001 || v > 0.01 {
			t.Errorf("q%v = %v, want within (0.001, 0.01]", q, v)
		}
	}
	// Overflow observations report the largest finite bound.
	h.Observe(50)
	if got := h.Snapshot().Quantile(1); got != 1 {
		t.Errorf("overflow quantile = %v, want 1", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	bounds := []float64{1, 2}
	r := NewRegistry()
	a := r.Histogram("h", "", bounds, L("op", "a"))
	b := r.Histogram("h", "", bounds, L("op", "b"))
	a.Observe(0.5)
	b.Observe(1.5)
	b.Observe(10)
	var fam FamilySnapshot
	for _, f := range r.Snapshot() {
		if f.Name == "h" {
			fam = f
		}
	}
	m, ok := fam.MergedHist()
	if !ok {
		t.Fatal("MergedHist not ok")
	}
	if m.Count != 3 || math.Abs(m.Sum-12) > 1e-9 {
		t.Errorf("merged count=%d sum=%v, want 3 and 12", m.Count, m.Sum)
	}
	if m.Buckets[0] != 1 || m.Buckets[1] != 1 || m.Buckets[2] != 1 {
		t.Errorf("merged buckets = %v", m.Buckets)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("medvault_ops_total", "Operations by outcome.", L("op", "put"), L("outcome", "ok")).Add(7)
	r.Gauge("medvault_live", "Live records.").Set(3)
	h := r.Histogram("medvault_seconds", "Latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP medvault_ops_total Operations by outcome.",
		"# TYPE medvault_ops_total counter",
		`medvault_ops_total{op="put",outcome="ok"} 7`,
		"# TYPE medvault_live gauge",
		"medvault_live 3",
		"# TYPE medvault_seconds histogram",
		`medvault_seconds_bucket{le="0.01"} 1`,
		`medvault_seconds_bucket{le="0.1"} 2`,
		`medvault_seconds_bucket{le="+Inf"} 3`,
		"medvault_seconds_sum 5.055",
		"medvault_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", L("path", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{path="a\"b\\c\n"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

// TestConcurrentUse exercises registration and the hot paths from many
// goroutines; run with -race.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			ops := []string{"put", "get", "search"}
			for j := 0; j < 500; j++ {
				op := ops[j%len(ops)]
				r.Counter("c_total", "", L("op", op)).Inc()
				r.Gauge("g", "").Add(1)
				r.Histogram("h_seconds", "", LatencyBuckets, L("op", op)).Observe(float64(j) * 1e-6)
			}
		}(i)
	}
	wg.Wait()
	var total uint64
	for _, f := range r.Snapshot() {
		if f.Name == "c_total" {
			for _, s := range f.Series {
				total += uint64(s.Value)
			}
		}
		if f.Name == "h_seconds" {
			m, ok := f.MergedHist()
			if !ok || m.Count != 8*500 {
				t.Errorf("histogram merged count = %d, want %d", m.Count, 8*500)
			}
		}
	}
	if total != 8*500 {
		t.Errorf("counter total = %d, want %d", total, 8*500)
	}
}
