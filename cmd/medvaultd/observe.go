package main

// Process-level observability plumbing shared by the primary and follower
// paths: build-info gauges, the anomaly watchdog, and postmortem capture
// (panic hook, WAL-wedge anomaly, SIGQUIT).

import (
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"medvault/internal/faultfs"
	"medvault/internal/obs"
)

// version is stamped by the build (-ldflags "-X main.version=v1.2.3");
// a bare `go build` reports dev.
var version = "dev"

// registerBuildInfo publishes the conventional build-identity series: a
// constant-1 info gauge whose labels carry the facts, and the process start
// time so dashboards can compute uptime and spot silent restarts.
func registerBuildInfo(shards int) {
	obs.Default.Gauge("medvault_build_info",
		"Build metadata carried in labels; the value is always 1.",
		obs.L("version", version),
		obs.L("go_version", runtime.Version()),
		obs.L("shards", strconv.Itoa(shards))).Set(1)
	obs.Default.Gauge("process_start_time_seconds",
		"Unix time the process started.").Set(float64(time.Now().Unix()))
}

// postmortems writes crash bundles into the data dir, rate-limited so a
// panic storm or a flapping anomaly cannot fill the disk with near-identical
// bundles while the one that matters is already on disk, and pruned to the
// newest postmortemKeep so a wedge that flaps for days cannot either.
type postmortems struct {
	dir string
	log *slog.Logger
	wd  *obs.Watchdog // set by startObservability

	mu   sync.Mutex
	last time.Time
}

const (
	postmortemMinGap = 30 * time.Second
	postmortemKeep   = 8
)

func (p *postmortems) write(reason string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.last.IsZero() && time.Since(p.last) < postmortemMinGap {
		p.log.Warn("postmortem suppressed by rate limit", "reason", reason)
		return
	}
	p.last = time.Now()
	path, err := obs.WritePostmortem(faultfs.OS{}, p.dir, reason, obs.PostmortemConfig{Watchdog: p.wd})
	if err != nil {
		p.log.Error("postmortem write failed", "reason", reason, "err", err.Error())
		return
	}
	p.log.Info("postmortem bundle written", "path", path, "reason", reason)
	if err := obs.PrunePostmortems(faultfs.OS{}, p.dir, postmortemKeep); err != nil {
		p.log.Warn("postmortem prune failed", "err", err.Error())
	}
}

// startObservability starts what both modes run for the life of the process:
// the build-info gauges, SIGQUIT capture, and the anomaly watchdog. Every
// anomaly streak is logged; a WAL wedge — the one anomaly that means durable
// commits are failing right now — also captures a postmortem bundle, because
// the operator will want the flight tail from the moment it happened, not
// from whenever they get paged. Returns the postmortem writer (the panic
// hook), the watchdog (for /healthz detail) and its stop function.
func startObservability(dir string, shards int, logger *slog.Logger) (*postmortems, *obs.Watchdog, func()) {
	registerBuildInfo(shards)
	pm := &postmortems{dir: dir, log: logger}
	pm.wd = obs.NewWatchdog(obs.WatchdogConfig{
		OnAnomaly: func(a obs.Anomaly) {
			logger.Warn("watchdog anomaly", "kind", a.Kind, "detail", a.Detail)
			if a.Kind == "wal_wedge" {
				pm.write("watchdog: " + a.Kind + ": " + a.Detail)
			}
		},
	})
	notifySIGQUIT(pm, logger)
	return pm, pm.wd, pm.wd.Start()
}

// notifySIGQUIT turns SIGQUIT into a postmortem bundle plus exit(2) —
// the operator's "dump everything and die" lever, like the Go runtime's
// default SIGQUIT stack dump but durable and structured. Registering the
// handler replaces the runtime's default; the bundle embeds the same
// goroutine stacks, so nothing is lost.
func notifySIGQUIT(pm *postmortems, logger *slog.Logger) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		<-ch
		logger.Error("SIGQUIT received; writing postmortem bundle and exiting")
		pm.write("SIGQUIT")
		os.Exit(2)
	}()
}
