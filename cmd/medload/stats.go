package main

// Client-side statistics: the collector is a medclient.Recorder shared by
// every actor; the report is what the CLI prints and gates its exit on.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"medvault/internal/medclient"
)

// maxSamplesPerEndpoint bounds per-endpoint latency memory. Full runs stay
// far under it; beyond the cap new samples overwrite random slots so the
// distribution stays representative.
const maxSamplesPerEndpoint = 100_000

// collector aggregates every call the actor fleet makes. Safe for
// concurrent use.
type collector struct {
	stopping atomic.Bool // set when the window closes: in-flight cancellations are not errors

	mu         sync.Mutex
	byEndpoint map[string]*dist
	total      int64
	unexpected int64
	transport  int64
	replace    uint64 // cheap LCG state for over-cap slot replacement
}

// dist is one endpoint's latency record.
type dist struct {
	samples    []float64 // seconds
	count      int64
	unexpected int64
	max        float64
}

func newCollector() *collector {
	return &collector{byEndpoint: make(map[string]*dist)}
}

// Record implements medclient.Recorder.
func (c *collector) Record(call medclient.Call) {
	c.record(call.Endpoint, call.Status, call.Duration, call.Err, call.Unexpected)
}

func (c *collector) record(endpoint string, status int, d time.Duration, err error, unexpected bool) {
	// Once the window closes, calls the cancellation chopped mid-flight are
	// bookkeeping noise, not failures.
	if c.stopping.Load() && err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	if unexpected {
		c.unexpected++
	}
	if status == 0 { // transport-level failure; no server verdict
		c.transport++
		return
	}
	ep := c.byEndpoint[endpoint]
	if ep == nil {
		ep = &dist{}
		c.byEndpoint[endpoint] = ep
	}
	secs := d.Seconds()
	ep.count++
	if unexpected {
		ep.unexpected++
	}
	if secs > ep.max {
		ep.max = secs
	}
	if len(ep.samples) < maxSamplesPerEndpoint {
		ep.samples = append(ep.samples, secs)
		return
	}
	c.replace = c.replace*6364136223846793005 + 1442695040888963407
	ep.samples[c.replace%uint64(len(ep.samples))] = secs
}

// endpointStats is one endpoint's row in the report.
type endpointStats struct {
	Endpoint   string
	Count      int64
	Unexpected int64
	P50S       float64
	P99S       float64
	MaxS       float64
}

// invariantResult is one cross-actor invariant's verdict.
type invariantResult struct {
	Name       string
	Checked    int
	Violations int
	Detail     string // first violation, for the report
}

func (i *invariantResult) fail(detail string) {
	i.Violations++
	if i.Detail == "" {
		i.Detail = detail
	}
}

// sloResult is the run's gate verdict.
type sloResult struct {
	P99TargetS  float64
	ErrorBudget float64
	Pass        bool
	Failures    []string
}

// report is the run's full outcome.
type report struct {
	Target          string
	Shards          int
	Scenarios       []string
	Actors          int
	DurationS       float64
	CallsTotal      int64
	CallsUnexpected int64
	TransportErrors int64
	ThroughputRPS   float64
	Endpoints       []endpointStats
	Invariants      []invariantResult
	SLO             sloResult
}

// invariantFeeders names, per sampled invariant, the personas whose beats
// produce its samples. An invariant that checked nothing although a selected
// scenario fields one of its feeders passed vacuously, and fails the gate.
// (verify-clean samples nothing; it always checks once.)
var invariantFeeders = map[string][]string{
	"breakglass-audited":   {"bg-responder"},
	"breakglass-disclosed": {"bg-responder"},
	"denied-audited":       {"records-clerk", "ins-auditor"},
	"created-readable":     {"admit-clin"},
}

// fedBy returns the first selected scenario that fields a persona feeding
// the named invariant, or "" when none does.
func fedBy(invariant string, selected []string) string {
	for _, s := range selected {
		for _, wp := range scenarios[s] {
			if slices.Contains(invariantFeeders[invariant], wp.persona) {
				return s
			}
		}
	}
	return ""
}

// sloMinCalls is the per-endpoint sample floor for the p99 gate: a handful
// of calls says nothing about a tail.
const sloMinCalls = 10

// buildReport snapshots the collector, evaluates the SLO gates, and
// assembles the report.
func buildReport(cfg config, shards int, elapsed time.Duration, col *collector, invariants []invariantResult) *report {
	col.mu.Lock()
	endpoints := make([]endpointStats, 0, len(col.byEndpoint))
	for name, d := range col.byEndpoint {
		sorted := append([]float64(nil), d.samples...)
		sort.Float64s(sorted)
		endpoints = append(endpoints, endpointStats{
			Endpoint: name, Count: d.count, Unexpected: d.unexpected,
			P50S: quantile(sorted, 0.50), P99S: quantile(sorted, 0.99), MaxS: d.max,
		})
	}
	total, unexpected, transport := col.total, col.unexpected, col.transport
	col.mu.Unlock()
	sort.Slice(endpoints, func(i, j int) bool { return endpoints[i].Endpoint < endpoints[j].Endpoint })

	rep := &report{
		Target:          cfg.Target,
		Shards:          shards,
		Scenarios:       cfg.Scenarios,
		Actors:          cfg.Actors,
		DurationS:       elapsed.Seconds(),
		CallsTotal:      total,
		CallsUnexpected: unexpected,
		TransportErrors: transport,
		Endpoints:       endpoints,
		Invariants:      invariants,
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(total) / elapsed.Seconds()
	}

	slo := sloResult{P99TargetS: cfg.P99Target.Seconds(), ErrorBudget: cfg.ErrorBudget, Pass: true}
	target := cfg.P99Target.Seconds()
	for _, e := range endpoints {
		if e.Count >= sloMinCalls && e.P99S > target {
			slo.Pass = false
			slo.Failures = append(slo.Failures,
				fmt.Sprintf("%s p99 %s > target %s", e.Endpoint, fmtSec(e.P99S), cfg.P99Target))
		}
	}
	if total > 0 {
		rate := float64(unexpected+transport) / float64(total)
		if rate > cfg.ErrorBudget {
			slo.Pass = false
			slo.Failures = append(slo.Failures,
				fmt.Sprintf("error rate %.4f (%d unexpected + %d transport of %d calls) > budget %.4f",
					rate, unexpected, transport, total, cfg.ErrorBudget))
		}
	} else {
		slo.Pass = false
		slo.Failures = append(slo.Failures, "no calls completed")
	}
	for _, inv := range invariants {
		if inv.Violations > 0 {
			slo.Pass = false
			slo.Failures = append(slo.Failures,
				fmt.Sprintf("invariant %s: %d violation(s): %s", inv.Name, inv.Violations, inv.Detail))
		} else if s := fedBy(inv.Name, cfg.Scenarios); inv.Checked == 0 && s != "" {
			slo.Pass = false
			slo.Failures = append(slo.Failures,
				fmt.Sprintf("invariant %s checked nothing although scenario %s feeds it (vacuous pass)", inv.Name, s))
		}
	}
	rep.SLO = slo
	return rep
}

// quantile reads q from an ascending-sorted sample set.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
