package obs

// The watchdog is the system's self-diagnosis loop: a single goroutine that
// evaluates health signals already flowing through the metrics registry —
// WAL queue depth and wedge, fsync-latency stalls, replication lag and epoch
// fence rejections — plus in-flight op age and runtime stats, against fixed
// thresholds. Findings become three things at once: a
// medvault_watchdog_anomalies_total{kind=...} counter tick, a flight-recorder
// event (so the black box captures that the system knew it was degrading),
// and a current-anomaly list /healthz serves as degraded detail.
//
// Reading signals from the registry instead of from the owning packages is a
// deliberate inversion: wal and repl already publish these gauges, and obs
// must not import either (wal imports obs for its metrics). The watchdog
// therefore works on any process wired the standard way, with no per-package
// plumbing.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Anomaly is one active health finding.
type Anomaly struct {
	Kind   string    // "wal_wedge", "wal_queue", "fsync_stall", "repl_lag", "fence_rejection", "op_stall", "goroutines"
	Detail string    // PHI-free specifics: observed value vs threshold
	Since  time.Time // start of the current streak
}

// WatchdogConfig tunes the watchdog; zero values get defaults.
type WatchdogConfig struct {
	Interval time.Duration // tick period (default 2s)
	Registry *Registry     // signal source and counter home (default Default)
	Flight   *Flight       // anomaly event destination (default DefaultFlight)

	// OnAnomaly, when set, is called once at the start of each anomaly
	// streak (not every tick) — medvaultd hooks postmortem capture here.
	OnAnomaly func(Anomaly)

	FsyncStall time.Duration // any fsync slower than this since the last tick (default 1s)
}

// The watchdog's fixed thresholds: a signal above one is an anomaly.
const (
	walQueueMax  = 1024             // WAL commit queue depth
	replLagMax   = 256              // captured ops not yet shipped to the follower
	opAgeMax     = 30 * time.Second // age of the oldest in-flight op
	goroutineMax = 20000            // goroutines in the process
)

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Registry == nil {
		c.Registry = Default
	}
	if c.Flight == nil {
		c.Flight = DefaultFlight
	}
	if c.FsyncStall <= 0 {
		c.FsyncStall = time.Second
	}
	return c
}

// Watchdog evaluates health signals on a fixed tick. Construct with
// NewWatchdog; drive with Start (goroutine) or Tick (deterministic tests).
type Watchdog struct {
	cfg WatchdogConfig

	goroutines *Gauge
	heapBytes  *Gauge
	gcPause    *Histogram
	ticks      *Counter

	mu        sync.Mutex
	current   []Anomaly
	streaks   map[string]time.Time
	lastSlow  uint64 // slow-fsync observation count at last tick
	lastFence float64
	lastNumGC uint32

	stop chan struct{}
	done chan struct{}
}

// NewWatchdog builds a watchdog and registers the runtime gauges it samples
// (satisfying the "sampled by the watchdog tick, not per-scrape" contract:
// a /metrics scrape reads whatever the last tick stored).
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	cfg = cfg.withDefaults()
	w := &Watchdog{
		cfg:     cfg,
		streaks: make(map[string]time.Time),
		goroutines: cfg.Registry.Gauge("medvault_goroutines",
			"Goroutine count, sampled by the watchdog tick."),
		heapBytes: cfg.Registry.Gauge("medvault_heap_bytes",
			"Heap bytes in use, sampled by the watchdog tick."),
		gcPause: cfg.Registry.Histogram("medvault_gc_pause_seconds",
			"GC stop-the-world pause durations, sampled by the watchdog tick.", LatencyBuckets),
		ticks: cfg.Registry.Counter("medvault_watchdog_ticks_total",
			"Watchdog evaluation ticks completed."),
	}
	// Prime the deltas so pre-existing history does not fire on the first tick.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.lastNumGC = ms.NumGC
	snap := cfg.Registry.Snapshot()
	w.lastSlow = w.slowFsyncCount(snap)
	w.lastFence, _ = famTotal(snap, "medvault_repl_fence_rejections_total")
	return w
}

// Start runs the tick loop in a goroutine and returns its stop function.
func (w *Watchdog) Start() (stop func()) {
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.Tick()
			}
		}
	}()
	return func() {
		close(w.stop)
		<-w.done
	}
}

// Anomalies returns the findings of the most recent tick.
func (w *Watchdog) Anomalies() []Anomaly {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Anomaly(nil), w.current...)
}

// famTotal sums Value across the named family's series, false when absent.
func famTotal(snap []FamilySnapshot, name string) (float64, bool) {
	for _, f := range snap {
		if f.Name == name {
			return f.Total(), true
		}
	}
	return 0, false
}

// slowFsyncCount counts lifetime WAL fsync observations that landed in
// buckets entirely above the stall threshold.
func (w *Watchdog) slowFsyncCount(snap []FamilySnapshot) uint64 {
	for _, f := range snap {
		if f.Name != "medvault_wal_fsync_seconds" {
			continue
		}
		h, ok := f.MergedHist()
		if !ok {
			return 0
		}
		thr := w.cfg.FsyncStall.Seconds()
		var n uint64
		for i, c := range h.Buckets {
			// Bucket i spans (Bounds[i-1], Bounds[i]]; the overflow bucket
			// (i == len(Bounds)) spans (last bound, +Inf).
			lower := 0.0
			if i > 0 {
				lower = h.Bounds[i-1]
			}
			if lower >= thr {
				n += c
			}
		}
		return n
	}
	return 0
}

// Tick runs one evaluation pass and returns the active anomalies. Exported
// so regression tests can drive the watchdog deterministically.
func (w *Watchdog) Tick() []Anomaly {
	now := time.Now()
	w.sampleRuntime()
	snap := w.cfg.Registry.Snapshot()

	var found []Anomaly
	add := func(kind, detail string) {
		found = append(found, Anomaly{Kind: kind, Detail: detail, Since: now})
	}

	if v, ok := famTotal(snap, "medvault_wal_wedged"); ok && v > 0 {
		add("wal_wedge", "a WAL in this process has wedged; durable commits are failing")
	}
	if v, ok := famTotal(snap, "medvault_wal_queue_depth"); ok && v > walQueueMax {
		add("wal_queue", fmt.Sprintf("WAL commit queue depth %.0f exceeds %d", v, walQueueMax))
	}
	slow := w.slowFsyncCount(snap)
	if prev := w.prevSlow(slow); slow > prev {
		add("fsync_stall", fmt.Sprintf("%d fsync(s) slower than %s since last tick", slow-prev, w.cfg.FsyncStall))
	}
	if v, ok := famTotal(snap, "medvault_repl_lag_frames"); ok && v > replLagMax {
		add("repl_lag", fmt.Sprintf("replication lag %.0f frames exceeds %d", v, replLagMax))
	}
	fence, _ := famTotal(snap, "medvault_repl_fence_rejections_total")
	if prev := w.prevFence(fence); fence > prev {
		add("fence_rejection", fmt.Sprintf("%.0f epoch fence rejection(s) since last tick — a fenced-out primary is still writing", fence-prev))
	}
	if age := ActiveOps.Oldest(); age > opAgeMax {
		add("op_stall", fmt.Sprintf("oldest in-flight op running %s, threshold %s", age.Round(time.Millisecond), opAgeMax))
	}
	if n := runtime.NumGoroutine(); n > goroutineMax {
		add("goroutines", fmt.Sprintf("%d goroutines exceed %d", n, goroutineMax))
	}

	w.mu.Lock()
	var fresh []Anomaly
	streaks := make(map[string]time.Time, len(found))
	for i := range found {
		if since, ok := w.streaks[found[i].Kind]; ok {
			found[i].Since = since
		} else {
			fresh = append(fresh, found[i])
		}
		streaks[found[i].Kind] = found[i].Since
	}
	w.streaks = streaks
	w.current = found
	w.mu.Unlock()

	w.ticks.Inc()
	for _, a := range found {
		w.cfg.Registry.Counter("medvault_watchdog_anomalies_total",
			"Watchdog anomaly observations by kind (incremented each tick the anomaly is active).",
			L("kind", a.Kind)).Inc()
	}
	for _, a := range fresh {
		w.cfg.Flight.Record(FlightEvent{Kind: "watchdog", Outcome: "anomaly", Detail: a.Kind + ": " + a.Detail})
		if w.cfg.OnAnomaly != nil {
			w.cfg.OnAnomaly(a)
		}
	}
	return append([]Anomaly(nil), found...)
}

func (w *Watchdog) prevSlow(cur uint64) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	prev := w.lastSlow
	w.lastSlow = cur
	return prev
}

func (w *Watchdog) prevFence(cur float64) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	prev := w.lastFence
	w.lastFence = cur
	return prev
}

// sampleRuntime refreshes the runtime gauges and feeds GC pauses observed
// since the last tick into the pause histogram.
func (w *Watchdog) sampleRuntime() {
	w.goroutines.Set(float64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heapBytes.Set(float64(ms.HeapAlloc))
	w.mu.Lock()
	last := w.lastNumGC
	w.lastNumGC = ms.NumGC
	w.mu.Unlock()
	n := ms.NumGC - last
	if n > uint32(len(ms.PauseNs)) {
		n = uint32(len(ms.PauseNs)) // ring overflowed between ticks
	}
	for i := uint32(0); i < n; i++ {
		idx := (ms.NumGC - i + uint32(len(ms.PauseNs)) - 1) % uint32(len(ms.PauseNs))
		w.gcPause.Observe(float64(ms.PauseNs[idx]) / 1e9)
	}
}

// --- in-flight op age ------------------------------------------------------

// opSlots bounds the tracker: ops beyond this many concurrent simply go
// untracked (the watchdog still sees the oldest of the tracked ones, which
// is the signal that matters for a stall).
const opSlots = 256

// OpTracker records start times of in-flight operations in fixed lock-free
// slots so the watchdog can ask "how old is the oldest thing still running".
type OpTracker struct {
	next  atomic.Uint64
	slots [opSlots]atomic.Int64 // start unixnano; 0 = free
}

// ActiveOps is the process-wide tracker the core op envelope feeds.
var ActiveOps = &OpTracker{}

// Begin claims a slot stamped now and returns it, or -1 when the tracker is
// saturated (the op runs untracked).
func (t *OpTracker) Begin() int {
	now := time.Now().UnixNano()
	for try := 0; try < 4; try++ {
		i := int(t.next.Add(1) % opSlots)
		if t.slots[i].CompareAndSwap(0, now) {
			return i
		}
	}
	return -1
}

// End releases the slot returned by Begin; -1 is a no-op.
func (t *OpTracker) End(slot int) {
	if slot >= 0 {
		t.slots[slot].Store(0)
	}
}

// Oldest returns the age of the oldest tracked in-flight op, or 0.
func (t *OpTracker) Oldest() time.Duration {
	var oldest int64
	for i := range t.slots {
		if v := t.slots[i].Load(); v != 0 && (oldest == 0 || v < oldest) {
			oldest = v
		}
	}
	if oldest == 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - oldest)
}
