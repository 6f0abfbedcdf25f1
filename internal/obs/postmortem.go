// Postmortem bundles: the crash-time counterpart of the flight recorder.
//
// When the process is about to die in a way worth investigating — a panic,
// a wedged WAL, an operator SIGQUIT — WritePostmortem captures everything a
// responder needs into one JSON file: the reason, the tail of the flight
// ring, all goroutine stacks, a Prometheus-format metrics snapshot, and the
// retained slow traces. The bundle goes through the same faultfs seam as
// the vault's own data (tmp file, sync, rename), so it is crash-atomic: a
// bundle either exists completely or not at all, and the torture harness
// can exercise the path under fault injection.
//
// Like flight events, bundles are PHI-free by construction: they contain
// only data already in the observability plane (record tokens, trace IDs,
// metric names, Go stacks), never record plaintext.
package obs

import (
	"encoding/json"
	"fmt"
	"path"
	"runtime"
	"sort"
	"strings"
	"time"

	"medvault/internal/faultfs"
)

// PostmortemDir is the directory (under the data dir) bundles land in.
const PostmortemDir = "postmortem"

// postmortemFlightTail bounds how much of the flight ring a bundle embeds.
const postmortemFlightTail = 1024

// postmortemSlowTraces bounds how many retained slow traces a bundle embeds.
const postmortemSlowTraces = 32

// Postmortem is the decoded form of one bundle file.
type Postmortem struct {
	Reason    string            `json:"reason"`
	Time      time.Time         `json:"time"`
	Flight    []FlightEvent     `json:"flight,omitempty"`     // newest first
	Stacks    string            `json:"stacks,omitempty"`     // all goroutines
	Metrics   string            `json:"metrics,omitempty"`    // Prometheus text
	SlowOps   []PostmortemTrace `json:"slow_ops,omitempty"`   // retained slow traces
	Anomalies []Anomaly         `json:"anomalies,omitempty"`  // active watchdog streaks
	GoVersion string            `json:"go_version,omitempty"` //
}

// PostmortemTrace is the flattened slice of a Trace a bundle keeps: enough
// to join against the flight ring and logs, without the full span tree.
type PostmortemTrace struct {
	ID    string        `json:"id"`
	Op    string        `json:"op"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Err   string        `json:"err,omitempty"`
}

// PostmortemConfig names the sources a bundle draws from. Nil fields fall
// back to the process-wide defaults; set them explicitly in tests.
type PostmortemConfig struct {
	Flight   *Flight
	Tracer   *Tracer
	Registry *Registry
	Watchdog *Watchdog // optional: embeds active anomaly streaks
}

// WritePostmortem assembles a bundle and writes it crash-atomically under
// dir/postmortem, returning the final path. It must stay safe to call from
// a dying process: no locks beyond the sources' own, no panics on nil
// sources, best-effort everywhere.
func WritePostmortem(fsys faultfs.FS, dir, reason string, cfg PostmortemConfig) (string, error) {
	if cfg.Flight == nil {
		cfg.Flight = DefaultFlight
	}
	if cfg.Tracer == nil {
		cfg.Tracer = DefaultTracer
	}
	if cfg.Registry == nil {
		cfg.Registry = Default
	}

	pm := Postmortem{
		Reason:    reason,
		Time:      time.Now().UTC(),
		Flight:    cfg.Flight.Snapshot(FlightFilter{Limit: postmortemFlightTail}),
		GoVersion: runtime.Version(),
	}

	// All goroutine stacks. runtime.Stack truncates to the buffer, so size
	// it generously but bounded: a postmortem must never OOM a dying process.
	buf := make([]byte, 1<<20)
	pm.Stacks = string(buf[:runtime.Stack(buf, true)])

	var metrics strings.Builder
	if err := cfg.Registry.WritePrometheus(&metrics); err == nil {
		pm.Metrics = metrics.String()
	}

	for _, tr := range cfg.Tracer.Snapshot(TraceFilter{MinDur: DefaultSlowThreshold, Limit: postmortemSlowTraces}) {
		pm.SlowOps = append(pm.SlowOps, PostmortemTrace{
			ID: tr.ID, Op: tr.Op, Start: tr.Start, Dur: tr.Dur, Err: tr.Err,
		})
	}
	if cfg.Watchdog != nil {
		pm.Anomalies = cfg.Watchdog.Anomalies()
	}

	data, err := json.MarshalIndent(pm, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: encoding postmortem: %w", err)
	}

	pmDir := path.Join(dir, PostmortemDir)
	if err := fsys.MkdirAll(pmDir, 0o700); err != nil {
		return "", fmt.Errorf("obs: creating postmortem dir: %w", err)
	}
	final := path.Join(pmDir, fmt.Sprintf("pm-%s.json", pm.Time.Format("20060102-150405.000000000")))
	if err := faultfs.WriteFileAtomic(fsys, final, data, 0o600); err != nil {
		return "", fmt.Errorf("obs: writing postmortem: %w", err)
	}
	return final, nil
}

// postmortemNames lists the bundle files under pmDir, oldest first (the
// timestamped names sort chronologically), and the temporary files of the
// writes a crash cut short; a missing directory lists none.
func postmortemNames(fsys faultfs.FS, pmDir string) (bundles, temps []string) {
	ents, _ := fsys.ReadDir(pmDir)
	for _, e := range ents {
		name := e.Name()
		switch {
		case e.IsDir() || !strings.HasPrefix(name, "pm-"):
		case strings.HasSuffix(name, ".json"):
			bundles = append(bundles, name)
		case strings.HasSuffix(name, ".json.tmp"):
			temps = append(temps, name)
		}
	}
	sort.Strings(bundles)
	return bundles, temps
}

// PrunePostmortems removes the oldest bundles under dir/postmortem until at
// most keep remain, and then every bundle's temporary file: a crash
// mid-bundle leaves one behind, and no write is in flight during a prune
// (medvaultd writes and prunes under one mutex). Each goes in one Remove,
// so a crash mid-prune leaves every remaining bundle whole; the first
// failed Remove stops the prune.
func PrunePostmortems(fsys faultfs.FS, dir string, keep int) error {
	pmDir := path.Join(dir, PostmortemDir)
	names, temps := postmortemNames(fsys, pmDir)
	for _, name := range append(names[:max(len(names)-keep, 0)], temps...) {
		if err := fsys.Remove(path.Join(pmDir, name)); err != nil {
			return fmt.Errorf("obs: pruning postmortems: %w", err)
		}
	}
	return nil
}

// ReadPostmortems decodes every bundle under dir/postmortem, oldest first.
// A missing directory is an empty result, not an error; an undecodable
// bundle is skipped — the offline reader must cope with whatever a dying
// process left behind.
func ReadPostmortems(fsys faultfs.FS, dir string) ([]Postmortem, error) {
	pmDir := path.Join(dir, PostmortemDir)
	var out []Postmortem
	names, _ := postmortemNames(fsys, pmDir)
	for _, name := range names {
		data, err := fsys.ReadFile(path.Join(pmDir, name))
		if err != nil {
			continue
		}
		var pm Postmortem
		if err := json.Unmarshal(data, &pm); err != nil {
			continue
		}
		out = append(out, pm)
	}
	return out, nil
}
