// Command medbench regenerates the experiment tables E1–E9 described in
// DESIGN.md, which operationalize the paper's requirements (its Section 3)
// and storage-model analysis (Section 4) as measurements.
//
// Usage:
//
//	medbench                  # run everything at full scale
//	medbench -scale quick     # CI-sized run
//	medbench -e e1,e3         # selected experiments only
//
// medbench prints the paper's matrix and nothing else. Latency, throughput,
// cache and group-commit figures for the running system come from the one
// performance instrument, bench/ (see BENCHMARK.json and bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"medvault/internal/experiments"
	"medvault/internal/obs"
)

func main() {
	which := flag.String("e", "all", "comma-separated experiment ids (e1..e9, e2b) or 'all'")
	scale := flag.String("scale", "full", "'full' or 'quick'")
	flag.Parse()
	if err := run(*which, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "medbench:", err)
		os.Exit(1)
	}
}

func run(which, scale string) error {
	if scale != "full" && scale != "quick" {
		return fmt.Errorf("unknown scale %q", scale)
	}
	n2, n4, n5, n6, n7, n8, n9 := 500, []int{200, 1000, 5000}, 40, 50, []int{1000, 10000, 50000, 500000}, 300, 500
	if scale == "quick" {
		n2, n4, n5, n6, n7, n8, n9 = 100, []int{100, 400}, 10, 10, []int{500, 2000}, 60, 100
	}
	e2sizes := []int{200, 1000, 4000}
	if scale == "quick" {
		e2sizes = []int{100, 400}
	}
	all := map[string]func() (experiments.Table, error){
		"e1":  experiments.E1,
		"e2":  func() (experiments.Table, error) { return experiments.E2(n2) },
		"e2b": func() (experiments.Table, error) { return experiments.E2Series(e2sizes) },
		"e3":  experiments.E3,
		"e4":  func() (experiments.Table, error) { return experiments.E4(n4) },
		"e5":  func() (experiments.Table, error) { return experiments.E5(n5) },
		"e6":  func() (experiments.Table, error) { return experiments.E6(n6) },
		"e7":  func() (experiments.Table, error) { return experiments.E7(n7) },
		"e8":  func() (experiments.Table, error) { return experiments.E8(n8) },
		"e9":  func() (experiments.Table, error) { return experiments.E9(n9) },
	}
	order := []string{"e1", "e2", "e2b", "e3", "e4", "e5", "e6", "e7", "e8", "e9"}

	var selected []string
	if which == "all" {
		selected = order
	} else {
		for _, id := range strings.Split(which, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if _, ok := all[id]; !ok {
				return fmt.Errorf("unknown experiment %q (want e1..e9 or e2b)", id)
			}
			selected = append(selected, id)
		}
	}

	fmt.Printf("MedVault experiment harness — scale=%s, %s\n\n", scale, time.Now().Format(time.RFC3339))
	for _, id := range selected {
		start := time.Now()
		tbl, err := all[id]()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(tbl.String())
		fmt.Printf("(%s completed in %s)\n\n", strings.ToUpper(id), time.Since(start).Round(time.Millisecond))
	}
	printMetricsBreakdown(os.Stdout)
	return nil
}

// printMetricsBreakdown renders the per-mechanism cost split accumulated in
// the process-wide metrics registry across every experiment that just ran.
// The experiments report end-to-end numbers; this table attributes them —
// how much of the run went to sealing vs indexing vs auditing vs fsync —
// from the very same instrumentation medvaultd exposes on /metrics.
func printMetricsBreakdown(w *os.File) {
	fams := map[string]obs.FamilySnapshot{}
	for _, f := range obs.Default.Snapshot() {
		fams[f.Name] = f
	}
	hist := func(name string) (obs.HistSnapshot, bool) {
		f, ok := fams[name]
		if !ok {
			return obs.HistSnapshot{}, false
		}
		h, ok := f.MergedHist()
		return h, ok && h.Count > 0
	}

	mechanisms := []struct{ label, metric string }{
		{"encrypt (seal)", "medvault_crypto_seal_seconds"},
		{"decrypt (open)", "medvault_crypto_open_seconds"},
		{"index add", "medvault_index_add_seconds"},
		{"index search", "medvault_index_search_seconds"},
		{"audit append", "medvault_audit_append_seconds"},
		{"WAL fsync", "medvault_wal_fsync_seconds"},
		{"blockstore append", "medvault_blockstore_append_seconds"},
		{"blockstore read", "medvault_blockstore_read_seconds"},
	}
	fmt.Fprintln(w, "Per-mechanism latency breakdown (process-wide metrics registry, all experiments)")
	fmt.Fprintf(w, "  %-18s %9s %10s %9s %9s %9s %9s\n",
		"mechanism", "count", "total", "mean", "p50", "p95", "p99")
	for _, m := range mechanisms {
		h, ok := hist(m.metric)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-18s %9d %10s %9s %9s %9s %9s\n",
			m.label, h.Count, secs(h.Sum), secs(h.Mean()),
			secs(h.Quantile(0.50)), secs(h.Quantile(0.95)), secs(h.Quantile(0.99)))
	}

	// Vault operations, merged across outcomes per op label.
	if f, ok := fams["medvault_core_op_seconds"]; ok {
		byOp := mergeByLabel(f, "op")
		fmt.Fprintln(w, "\nVault operations (all outcomes)")
		fmt.Fprintf(w, "  %-18s %9s %10s %9s %9s %9s %9s\n",
			"op", "count", "total", "mean", "p50", "p95", "p99")
		for _, op := range sortedKeys(byOp) {
			h := byOp[op]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-18s %9d %10s %9s %9s %9s %9s\n",
				op, h.Count, secs(h.Sum), secs(h.Mean()),
				secs(h.Quantile(0.50)), secs(h.Quantile(0.95)), secs(h.Quantile(0.99)))
		}
	}

	// Per-span breakdown from the tracer: the same numbers the mechanism
	// table shows, but carved along the trace's span taxonomy — so the
	// attribution matches what an operator sees on /debug/traces exactly.
	if f, ok := fams["medvault_span_seconds"]; ok {
		bySpan := mergeByLabel(f, "span")
		fmt.Fprintln(w, "\nPer-span latency breakdown (traced operations)")
		fmt.Fprintf(w, "  %-18s %9s %10s %9s %9s %9s %9s\n",
			"span", "count", "total", "mean", "p50", "p95", "p99")
		for _, name := range sortedKeys(bySpan) {
			h := bySpan[name]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-18s %9d %10s %9s %9s %9s %9s\n",
				name, h.Count, secs(h.Sum), secs(h.Mean()),
				secs(h.Quantile(0.50)), secs(h.Quantile(0.95)), secs(h.Quantile(0.99)))
		}
	}
}

// mergeByLabel folds a histogram family's series by one label's value,
// merging series that differ only in other labels (e.g. outcome).
func mergeByLabel(f obs.FamilySnapshot, key string) map[string]obs.HistSnapshot {
	out := map[string]obs.HistSnapshot{}
	for _, s := range f.Series {
		if s.Hist == nil {
			continue
		}
		val := "unknown"
		for _, l := range s.Labels {
			if l.Key == key {
				val = l.Value
			}
		}
		if prev, seen := out[val]; seen {
			out[val] = prev.Merge(*s.Hist)
		} else {
			out[val] = *s.Hist
		}
	}
	return out
}

func sortedKeys(m map[string]obs.HistSnapshot) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// secs renders a duration measured in seconds at a bench-friendly precision.
func secs(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
