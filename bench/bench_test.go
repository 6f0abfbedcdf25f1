package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"medvault/internal/core"
	"medvault/internal/faultfs"
	"medvault/internal/httpapi"
	"medvault/internal/vaultcfg"
)

// opKey flattens an op to what a server would see of it.
type opKey struct {
	kind    kind
	rec     int32
	ver     uint32
	payload string
}

func planKeys(p *plan) []opKey {
	var out []opKey
	add := func(ops []op) {
		for _, o := range ops {
			k := opKey{kind: o.kind, rec: o.rec, ver: o.ver}
			if o.payload != nil {
				k.payload = o.payload.ID + "|" + o.payload.Body
			}
			out = append(out, k)
		}
	}
	add(p.preload)
	for c := range p.timed {
		add(p.warm[c])
		add(p.timed[c])
	}
	return out
}

func TestPlanIsDeterministicPerSeedAndDiffersAcrossSeeds(t *testing.T) {
	for _, s := range specs {
		s.preload = 300
		a, b, c := buildPlan(s, 7, 400), buildPlan(s, 7, 400), buildPlan(s, 8, 400)
		if !reflect.DeepEqual(planKeys(a), planKeys(b)) || a.userBytes != b.userBytes {
			t.Errorf("%s: the same seed planned two different streams", s.name)
		}
		if reflect.DeepEqual(planKeys(a), planKeys(c)) {
			t.Errorf("%s: seeds 7 and 8 planned the same stream", s.name)
		}
		// Seeds choose targets, never the amount of work: per-kind counts match.
		count := func(p *plan) (n [numKinds]int) {
			for _, ops := range p.timed {
				for _, o := range ops {
					n[o.kind]++
				}
			}
			return n
		}
		if count(a) != count(c) {
			t.Errorf("%s: per-kind op counts differ across seeds: %v vs %v", s.name, count(a), count(c))
		}
		if got := a.totalOps(); got < 390 || got > 400 {
			t.Errorf("%s: planned %d timed ops for a budget of 400", s.name, got)
		}
	}
}

func TestEveryWorkloadCarriesEveryClass(t *testing.T) {
	for _, s := range specs {
		var share [numClasses]int
		total := 0
		for k, w := range s.mix {
			share[kindClass[k]] += w
			total += w
		}
		if total != 1000 {
			t.Errorf("%s: mix sums to %d parts per thousand", s.name, total)
		}
		for cl, w := range share {
			// 300 samples per class per run is the floor the report promises.
			if n := w * s.timedOps(defaultSeconds) / 1000; n < 300 {
				t.Errorf("%s: class %s gets %d ops in a default run, want at least 300", s.name, classNames[cl], n)
			}
		}
	}
}

func TestPercentileAndSlicedMedian(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(ten, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}

	// 16 samples in issue order, 8 slices of 2: per-slice p50 (nearest rank)
	// is each pair's smaller value. One slice holds a burst; it moves one
	// slice p50 and not the median of the eight.
	calm := []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2}
	burst := append([]float64(nil), calm...)
	burst[6], burst[7] = 900, 950
	if got := slicedMedian(calm, 8); got != 1 {
		t.Errorf("slicedMedian(calm) = %v, want 1", got)
	}
	if got := slicedMedian(burst, 8); got != 1 {
		t.Errorf("slicedMedian(burst) = %v, want 1: a burst in one slice must not move it", got)
	}
	// Slice p50s 10,20,...,80 -> median 45; a remainder sample is dropped.
	var ramp []float64
	for s := 1; s <= 8; s++ {
		ramp = append(ramp, float64(10*s), float64(10*s), float64(10*s)+1)
	}
	if got := slicedMedian(append(ramp, 1e9), 8); got != 45 {
		t.Errorf("slicedMedian(ramp) = %v, want 45", got)
	}
	if got := slicedMedian([]float64{3, 1, 2}, 8); got != 2 {
		t.Errorf("slicedMedian of fewer samples than slices = %v, want the plain median 2", got)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{99, ""}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}, {100000, "p99.99"}} {
		if _, got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1.0", got)
	}
	// statistics.quantiles([10, 10.5, 9.5, 10.2, 30], n=4) == [9.75, 10.2, 20.25]
	if got, want := iqrShare([]float64{10, 10.5, 9.5, 10.2, 30}), (20.25-9.75)/10.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

// testVault opens an in-process vault with the benchmark principals. With
// fsys nil it lives on an in-memory disk, so puts cost microseconds.
func testVault(t *testing.T, fsys faultfs.FS) *core.Cluster {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, vaultcfg.PrincipalsFile), []byte(principalsConf()), 0o600); err != nil {
		t.Fatal(err)
	}
	if fsys == nil {
		fsys = faultfs.NewMem()
	}
	master, err := vaultcfg.ParseMasterKey(masterKeyHex)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vaultcfg.OpenWith(dir, "bench-test", master, vaultcfg.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

func TestSmokeEveryWorkloadPassesTheGate(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			s.preload, s.hot = 300, min(s.hot, 80)
			if s.openRate > 0 {
				s.openRate = 2000 // same loop, paced fast enough for a unit test
			}
			srv := httptest.NewServer(httpapi.New(testVault(t, nil)))
			defer srv.Close()
			p := buildPlan(s, 3, 300)
			d := newDriver(p, newGate(p), srv.URL, maxConns)
			defer d.close()
			ctx := context.Background()
			d.prepare(ctx)
			samples, elapsed := d.stream(ctx, "timed", p.timed, s.openRate)
			attempted := d.readBack(ctx)
			if d.failed != 0 {
				t.Fatalf("%d gate failures, first: %v", d.failed, d.failures)
			}
			if attempted < s.preload {
				t.Errorf("read-back covered %d versions, want at least the %d preloaded", attempted, s.preload)
			}
			res := &runResult{EndToEnd: map[string]metric{}, Layers: map[string]metric{}}
			if ok := summarize(res, samples, elapsed); ok != p.totalOps() {
				t.Errorf("%d of %d timed ops were correct", ok, p.totalOps())
			}
			if m := res.EndToEnd["slo_ok_ratio"]; m.Value <= 0 {
				t.Errorf("slo_ok_ratio = %v, want a positive measurement", m.Value)
			}
			for _, name := range []string{"put_p50_ms", "get_p50_ms", "search_p50_ms", "audit_p50_ms", "ops_per_s"} {
				if m := res.Layers[name]; m.Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", name, m.Value)
				}
			}
		})
	}
}

func TestGateCatchesAWrongBody(t *testing.T) {
	s, _ := specByName("read_hot")
	s.preload, s.hot = 60, 20
	srv := httptest.NewServer(httpapi.New(testVault(t, nil)))
	defer srv.Close()
	p := buildPlan(s, 1, 100)
	d := newDriver(p, newGate(p), srv.URL, 1)
	defer d.close()
	d.prepare(context.Background())
	if d.failed != 0 {
		t.Fatalf("set-up failed: %v", d.failures)
	}
	// The model now believes a different body was acknowledged for version 1.
	p.records[0].hashes[0][0] ^= 0xff
	o := op{kind: kGetVersion, rec: 0, ver: 1}
	if _, err := d.do(context.Background(), 0, &o); err == nil {
		t.Fatal("a get whose body differs from the acknowledged one passed the gate")
	}
}

func TestOpenLoopChargesAStallToTheOpsQueuedBehindIt(t *testing.T) {
	s := spec{name: "stall", conns: 1, openRate: 500, preload: 40, sel: selHot}
	s.mix[kGet] = 1000
	// The handler stalls the request that finds the countdown at 1; armed only
	// once set-up is over.
	var countdown atomic.Int64
	const stall = 100 * time.Millisecond
	api := httpapi.New(testVault(t, nil))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if countdown.Add(-1) == 0 {
			time.Sleep(stall)
		}
		api.ServeHTTP(w, r)
	}))
	defer srv.Close()
	p := buildPlan(s, 1, 100)
	d := newDriver(p, newGate(p), srv.URL, 1)
	defer d.close()
	ctx := context.Background()
	d.prepare(ctx)
	const stalled = 20
	countdown.Store(stalled + 1)
	samples, _ := d.stream(ctx, "timed", p.timed, s.openRate)
	if d.failed != 0 {
		t.Fatalf("gate failures: %v", d.failures)
	}
	sm := samples[0]
	if sm[stalled].lat < stall {
		t.Fatalf("the stalled op took %v, want at least %v", sm[stalled].lat, stall)
	}
	// Ops are due 2 ms apart, so the next ones were due long before the
	// stall ended: they are late, and that wait counts in their latency even
	// though their own service was quick.
	for i := stalled + 1; i <= stalled+3; i++ {
		due := time.Duration(i-stalled) * 2 * time.Millisecond
		if sm[i].late < stall-due-20*time.Millisecond {
			t.Errorf("op %d was issued %v late, want about %v", i, sm[i].late, stall-due)
		}
		if sm[i].lat < sm[i].late {
			t.Errorf("op %d: latency %v is less than its lateness %v: the stall was not charged to it", i, sm[i].lat, sm[i].late)
		}
	}
	for i := 0; i < stalled; i++ {
		if sm[i].lat > stall/2 {
			t.Errorf("op %d before the stall took %v", i, sm[i].lat)
		}
	}
}

func TestCancelEndsAnOpenLoopBeforeItsNextDueInstant(t *testing.T) {
	s := spec{name: "cancel", conns: 2, openRate: 1, preload: 40, sel: selHot}
	s.mix[kGet] = 1000
	srv := httptest.NewServer(httpapi.New(testVault(t, nil)))
	defer srv.Close()
	p := buildPlan(s, 1, 100)
	d := newDriver(p, newGate(p), srv.URL, 2)
	defer d.close()
	d.prepare(context.Background())
	// At one op a second the stream would take 100 s.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, took := d.stream(ctx, "timed", p.timed, s.openRate); took > 5*time.Second {
		t.Errorf("the stream outlived its context by %v", took)
	}
}

func TestCountFSSeesTwoFsyncsPerSingleCallerPut(t *testing.T) {
	cfs := newCountFS()
	v := testVault(t, cfs)
	s, _ := specByName("ingest")
	s.preload = 25
	p := buildPlan(s, 1, 10)
	ctx := context.Background()
	put := func(o *op) {
		t.Helper()
		if _, err := v.PutCtx(ctx, physician(p.records[o.rec].conn), toEHR(o.payload)); err != nil {
			t.Fatal(err)
		}
	}
	put(&p.preload[0]) // the first put also creates segment files
	before := cfs.read()
	const n = 20
	for i := 1; i <= n; i++ {
		put(&p.preload[i])
	}
	d := cfs.read().sub(before)
	if d.syncs != 2*n {
		t.Errorf("%d puts flushed %d times, want exactly %d (ciphertext segment, then WAL)", n, d.syncs, 2*n)
	}
	if d.walBytes <= 0 || d.walBytes >= d.writeBytes {
		t.Errorf("WAL bytes %d of %d written: want a proper share", d.walBytes, d.writeBytes)
	}
	before = cfs.read()
	for i := 1; i <= n; i++ {
		if _, _, err := v.GetCtx(ctx, physician(p.records[p.preload[i].rec].conn), p.preload[i].payload.ID); err != nil {
			t.Fatal(err)
		}
	}
	if d := cfs.read().sub(before); d.syncs != 0 {
		t.Errorf("%d gets flushed %d times, want 0", n, d.syncs)
	}
}
