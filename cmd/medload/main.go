// Command medload is a multi-actor HTTP workload simulator for medvaultd.
//
// It spawns concurrent scenario actors — admitting clinicians, records
// clerks, insurance auditors, breach investigators, break-glass responders,
// patient-portal probes — each driving the REST surface through the typed
// internal/medclient with the statuses its persona is entitled to baked into
// every call: a clerk reading a clinical record EXPECTS a 403, and anything
// else (a 200 most of all) counts against the run. After the load window it
// verifies cross-actor invariants through a compliance officer's eyes: every
// break-glass read must appear in the audit log and in the patient's
// accounting of disclosures, every sampled denial must be audited, and the
// vault must still pass a full integrity sweep.
//
// Usage:
//
//	medload -target http://127.0.0.1:8600 [-actors 200] [-duration 30s]
//	        [-scenarios admission,audit-storm,...] [-quick]
//	        [-slo-p99 2s] [-error-budget 0]
//
//	medload -print-principals [-actors N]   # emit principals.conf lines
//
// The run reports per-endpoint client-side latency percentiles, throughput,
// and an SLO verdict. Exit status is 0 only when every SLO gate holds and
// every invariant both holds and checked something — the exit status is the
// gate; figures anyone may cite come from bench/ (BENCHMARK.json).
//
// The target vault must know the load principals; provision them by
// appending `medload -print-principals -actors N` to the vault directory's
// principals.conf before starting medvaultd.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		target      = flag.String("target", "", "base URL of the vault under load (required)")
		actors      = flag.Int("actors", 200, "concurrent scenario actors")
		duration    = flag.Duration("duration", 30*time.Second, "load window")
		scenarioCSV = flag.String("scenarios", "all", "comma-separated scenarios: "+strings.Join(scenarioNames(), ",")+" (or all)")
		quick       = flag.Bool("quick", false, "smoke mode: 16 actors, 3s window")
		p99         = flag.Duration("slo-p99", 2*time.Second, "per-endpoint p99 latency gate")
		budget      = flag.Float64("error-budget", 0, "allowed fraction of unexpected-status calls (0 = none)")
		printPrinc  = flag.Bool("print-principals", false, "print principals.conf lines for -actors actors and exit")
	)
	flag.Parse()

	if *quick {
		*actors = 16
		*duration = 3 * time.Second
	}
	if *printPrinc {
		fmt.Print(principalLines(*actors))
		return
	}
	if *target == "" {
		fmt.Fprintln(os.Stderr, "medload: -target is required")
		os.Exit(2)
	}
	names, err := parseScenarios(*scenarioCSV)
	if err != nil {
		fmt.Fprintln(os.Stderr, "medload:", err)
		os.Exit(2)
	}

	cfg := config{
		Target:      *target,
		Actors:      *actors,
		Duration:    *duration,
		Scenarios:   names,
		P99Target:   *p99,
		ErrorBudget: *budget,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := runLoad(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "medload:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, rep)
	if !rep.SLO.Pass {
		os.Exit(1)
	}
}

// parseScenarios validates the -scenarios list ("all" selects every one).
func parseScenarios(csv string) ([]string, error) {
	if csv == "" || csv == "all" {
		return scenarioNames(), nil
	}
	var out []string
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := scenarios[name]; !ok {
			return nil, fmt.Errorf("unknown scenario %q (have: %s)", name, strings.Join(scenarioNames(), ", "))
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenarios selected")
	}
	sort.Strings(out)
	return out, nil
}

// printReport renders the human-readable summary: throughput, per-endpoint
// latency, invariant verdicts, and the SLO gate results.
func printReport(w *os.File, rep *report) {
	fmt.Fprintf(w, "\nmedload: %s  shards=%d  scenarios=%s\n",
		rep.Target, rep.Shards, strings.Join(rep.Scenarios, ","))
	fmt.Fprintf(w, "%d actors, %.1fs window: %d calls (%.0f/s), %d unexpected status, %d transport errors\n",
		rep.Actors, rep.DurationS, rep.CallsTotal, rep.ThroughputRPS, rep.CallsUnexpected, rep.TransportErrors)

	fmt.Fprintf(w, "\n%-40s %8s %6s %9s %9s %9s\n", "endpoint", "calls", "unexp", "p50", "p99", "max")
	for _, e := range rep.Endpoints {
		fmt.Fprintf(w, "%-40s %8d %6d %9s %9s %9s\n", e.Endpoint, e.Count, e.Unexpected,
			fmtSec(e.P50S), fmtSec(e.P99S), fmtSec(e.MaxS))
	}

	fmt.Fprintln(w)
	for _, inv := range rep.Invariants {
		verdict := "ok"
		if inv.Violations > 0 {
			verdict = "VIOLATED"
		} else if inv.Checked == 0 && fedBy(inv.Name, rep.Scenarios) != "" {
			verdict = "VACUOUS"
		}
		fmt.Fprintf(w, "invariant %-24s checked=%-4d violations=%-3d %s", inv.Name, inv.Checked, inv.Violations, verdict)
		if inv.Detail != "" {
			fmt.Fprintf(w, "  (%s)", inv.Detail)
		}
		fmt.Fprintln(w)
	}

	if rep.SLO.Pass {
		fmt.Fprintf(w, "\nSLO: PASS (p99 <= %s per endpoint, error budget %.4f)\n",
			time.Duration(rep.SLO.P99TargetS*float64(time.Second)), rep.SLO.ErrorBudget)
		return
	}
	fmt.Fprintln(w, "\nSLO: FAIL")
	for _, f := range rep.SLO.Failures {
		fmt.Fprintln(w, "  -", f)
	}
}

func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}
