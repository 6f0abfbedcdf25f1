package obs

import (
	"strings"
	"testing"
	"time"
)

// testWatchdog builds a watchdog over a private registry so ticks are
// deterministic regardless of what the rest of the process is doing.
func testWatchdog(t *testing.T) (*Watchdog, *Registry, *Flight) {
	t.Helper()
	reg := NewRegistry()
	fl := NewFlight(32)
	w := NewWatchdog(WatchdogConfig{
		Interval: time.Hour, // ticks are driven manually
		Registry: reg,
		Flight:   fl,
	})
	return w, reg, fl
}

func hasKind(anoms []Anomaly, kind string) bool {
	for _, a := range anoms {
		if a.Kind == kind {
			return true
		}
	}
	return false
}

func TestWatchdogQuietTick(t *testing.T) {
	w, reg, _ := testWatchdog(t)
	if anoms := w.Tick(); len(anoms) != 0 {
		t.Fatalf("quiet system reported anomalies: %+v", anoms)
	}
	// The tick must have sampled the runtime gauges (satellite contract:
	// sampled by the tick, not by the scrape).
	if reg.Gauge("medvault_goroutines", "").Value() <= 0 {
		t.Fatal("goroutine gauge not sampled")
	}
	if reg.Gauge("medvault_heap_bytes", "").Value() <= 0 {
		t.Fatal("heap gauge not sampled")
	}
}

func TestWatchdogDetectsWALWedge(t *testing.T) {
	w, reg, fl := testWatchdog(t)
	reg.Gauge("medvault_wal_wedged", "").Set(1)
	anoms := w.Tick()
	if !hasKind(anoms, "wal_wedge") {
		t.Fatalf("wedge not detected: %+v", anoms)
	}
	if reg.Counter("medvault_watchdog_anomalies_total", "", L("kind", "wal_wedge")).Value() != 1 {
		t.Fatal("anomaly counter not incremented")
	}
	evs := fl.Snapshot(FlightFilter{Kind: "watchdog"})
	if len(evs) != 1 || !strings.HasPrefix(evs[0].Detail, "wal_wedge") {
		t.Fatalf("flight event missing or wrong: %+v", evs)
	}
}

func TestWatchdogDetectsFsyncStall(t *testing.T) {
	w, reg, _ := testWatchdog(t)
	h := reg.Histogram("medvault_wal_fsync_seconds", "", LatencyBuckets)
	h.Observe(0.0001) // fast fsync: not a stall
	if anoms := w.Tick(); hasKind(anoms, "fsync_stall") {
		t.Fatalf("fast fsync misreported as stall: %+v", anoms)
	}
	h.Observe(2.5) // stalled fsync, well past the 1s default threshold
	if anoms := w.Tick(); !hasKind(anoms, "fsync_stall") {
		t.Fatalf("stalled fsync not detected: %+v", anoms)
	}
	// The stall was a delta; with no new slow observations the next tick
	// must be clean again.
	if anoms := w.Tick(); hasKind(anoms, "fsync_stall") {
		t.Fatalf("stall reported again with no new slow fsyncs: %+v", anoms)
	}
}

func TestWatchdogDetectsReplSignals(t *testing.T) {
	w, reg, _ := testWatchdog(t)
	reg.Gauge("medvault_repl_lag_frames", "").Set(100000)
	reg.Counter("medvault_repl_fence_rejections_total", "").Inc()
	anoms := w.Tick()
	if !hasKind(anoms, "repl_lag") || !hasKind(anoms, "fence_rejection") {
		t.Fatalf("replication anomalies not detected: %+v", anoms)
	}
}

func TestWatchdogStreaksAndCallback(t *testing.T) {
	reg := NewRegistry()
	var fired []Anomaly
	w := NewWatchdog(WatchdogConfig{
		Interval:  time.Hour,
		Registry:  reg,
		Flight:    NewFlight(8),
		OnAnomaly: func(a Anomaly) { fired = append(fired, a) },
	})
	reg.Gauge("medvault_wal_wedged", "").Set(1)
	first := w.Tick()
	second := w.Tick()
	if len(fired) != 1 || fired[0].Kind != "wal_wedge" {
		t.Fatalf("OnAnomaly must fire once per streak, got %+v", fired)
	}
	if !first[0].Since.Equal(second[0].Since) {
		t.Fatal("streak Since must be stable across ticks")
	}
	// Counter keeps ticking while the anomaly persists.
	if c := reg.Counter("medvault_watchdog_anomalies_total", "", L("kind", "wal_wedge")).Value(); c != 2 {
		t.Fatalf("anomaly counter = %d, want 2", c)
	}
	if got := w.Anomalies(); len(got) != 1 || got[0].Kind != "wal_wedge" {
		t.Fatalf("Anomalies() = %+v", got)
	}
	// Clearing the signal clears the streak; a re-wedge is a fresh streak.
	reg.Gauge("medvault_wal_wedged", "").Set(0)
	if anoms := w.Tick(); len(anoms) != 0 {
		t.Fatalf("cleared signal still anomalous: %+v", anoms)
	}
	reg.Gauge("medvault_wal_wedged", "").Set(1)
	w.Tick()
	if len(fired) != 2 {
		t.Fatalf("fresh streak did not re-fire OnAnomaly: %+v", fired)
	}
}

func TestWatchdogOpStall(t *testing.T) {
	w, _, _ := testWatchdog(t)
	slot := ActiveOps.Begin()
	if slot < 0 {
		t.Skip("tracker saturated")
	}
	defer ActiveOps.End(slot)
	ActiveOps.slots[slot].Store(time.Now().Add(-2 * opAgeMax).UnixNano()) // backdate the op past the threshold
	if anoms := w.Tick(); !hasKind(anoms, "op_stall") {
		t.Fatalf("op stall not detected: %+v", anoms)
	}
	ActiveOps.End(slot)
	if anoms := w.Tick(); hasKind(anoms, "op_stall") {
		t.Fatalf("finished op still reported stalled: %+v", anoms)
	}
}

func TestOpTracker(t *testing.T) {
	tr := &OpTracker{}
	if tr.Oldest() != 0 {
		t.Fatal("empty tracker reports an oldest op")
	}
	a := tr.Begin()
	time.Sleep(2 * time.Millisecond)
	b := tr.Begin()
	if a < 0 || b < 0 {
		t.Fatal("fresh tracker saturated")
	}
	if age := tr.Oldest(); age < 2*time.Millisecond {
		t.Fatalf("oldest age %s too small", age)
	}
	tr.End(a)
	tr.End(b)
	if tr.Oldest() != 0 {
		t.Fatal("ended ops still tracked")
	}
	tr.End(-1) // no-op, must not panic
}

func TestWatchdogStartStop(t *testing.T) {
	reg := NewRegistry()
	w := NewWatchdog(WatchdogConfig{Interval: time.Millisecond, Registry: reg, Flight: NewFlight(8)})
	stop := w.Start()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("medvault_watchdog_ticks_total", "").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
}
