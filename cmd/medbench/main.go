// Command medbench regenerates the experiment tables E1–E9 described in
// DESIGN.md, which operationalize the paper's requirements (its Section 3)
// and storage-model analysis (Section 4) as measurements.
//
// Usage:
//
//	medbench                  # run everything at full scale
//	medbench -scale quick     # CI-sized run
//	medbench -e e1,e3         # selected experiments only
//	medbench -workers 8       # concurrency scaling table instead of E1–E9
//	medbench -workers 8 -shards 4     # same table over a 4-shard cluster
//	medbench -reads 20000     # read-path benchmark (repeated Gets, hot cache)
//	medbench -reads 20000 -no-cache   # same workload with every cache layer off
//	medbench -json            # also write BENCH_<n>.json (schema medvault-bench/v2)
//
// -json writes the run's aggregate numbers — per-op and per-span latency
// quantiles, trace counters, and (in -workers mode) the scaling rows — to
// the first free BENCH_<n>.json in the working directory, so CI can archive
// and diff runs without scraping the human-readable tables. The schema is
// documented in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/experiments"
	"medvault/internal/obs"
	"medvault/internal/vcrypto"
)

func main() {
	var (
		which   = flag.String("e", "all", "comma-separated experiment ids (e1..e9) or 'all'")
		scale   = flag.String("scale", "full", "'full' or 'quick'")
		workers = flag.Int("workers", 0, "when > 0, run the throughput-vs-goroutines scaling table up to this many workers instead of the experiments")
		backend = flag.String("backend", "memory", "vault backend for -workers: 'memory' or 'file' (file adds the WAL + fsync path, where group commit pays off)")
		jsonOut = flag.Bool("json", false, "also write machine-readable results to the first free BENCH_<n>.json")
		reads   = flag.Int("reads", 0, "when > 0, run the read-path benchmark: this many Gets over a small warmed record set instead of the experiments")
		noCache = flag.Bool("no-cache", false, "disable every read-cache layer (DEK, block, negative) — the before side of a cache before/after")
		shards  = flag.String("shards", "1", "shard count for the -workers and -reads vaults (1 = classic single vault); -workers also accepts a comma-separated list (e.g. 1,4) to table each count in one run")
	)
	flag.Parse()
	shardCounts, err := parseShards(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "medbench:", err)
		os.Exit(1)
	}
	if *reads > 0 {
		if len(shardCounts) != 1 {
			fmt.Fprintln(os.Stderr, "medbench: -reads takes a single -shards count")
			os.Exit(1)
		}
		if err := runReads(*reads, *backend, *scale, shardCounts[0], *noCache, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "medbench:", err)
			os.Exit(1)
		}
		return
	}
	if *workers > 0 {
		if err := runScaling(*workers, *backend, *scale, shardCounts, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "medbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*which, *scale, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "medbench:", err)
		os.Exit(1)
	}
}

func run(which, scale string, jsonOut bool) error {
	if scale != "full" && scale != "quick" {
		return fmt.Errorf("unknown scale %q", scale)
	}
	n2, n4, n5, n6, n7, n8, n9 := 500, []int{200, 1000, 5000}, 40, 50, []int{1000, 10000, 50000}, 300, 500
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
	if jsonOut {
		return writeBenchJSON(benchReport{Mode: "experiments", Scale: scale, Shards: 1})
	}
	return nil
}

// runScaling measures Put and Get throughput against one vault (or one
// multi-shard cluster) as the number of concurrent workers grows — the
// end-to-end check on the striped lock manager, WAL group commit, and shard
// routing. Every number in the table is read back from the process-wide
// metrics registry (counter deltas around each run), not from harness-side
// bookkeeping, so the table exercises the same observability surface
// medvaultd exposes on /metrics.
func runScaling(maxWorkers int, backend, scale string, shardCounts []int, jsonOut bool) error {
	if backend != "memory" && backend != "file" {
		return fmt.Errorf("unknown backend %q (want memory or file)", backend)
	}
	if scale != "full" && scale != "quick" {
		return fmt.Errorf("unknown scale %q", scale)
	}
	total := 2000
	if backend == "file" {
		total = 1200 // every batch fsyncs; keep wall time sane
	}
	if scale == "quick" {
		total /= 5
	}

	series := []int{1}
	for w := 2; w < maxWorkers; w *= 2 {
		series = append(series, w)
	}
	if maxWorkers > 1 {
		series = append(series, maxWorkers)
	}

	fmt.Printf("(speedup is relative to the first table's 1-worker run; on a single-CPU host\n")
	fmt.Printf("the memory backend cannot exceed 1× — the file backend still gains from shared\n")
	fmt.Printf("fsyncs, and a sharded file cluster additionally overlaps per-shard WAL fsyncs)\n")

	// One table per shard count, every row's speedup measured against the
	// single baseline, so a 4-shard row reads directly as "× the 1-shard
	// 1-worker rate" when the list starts at 1.
	var putBase, getBase float64
	var rows []scalingRow
	for _, shards := range shardCounts {
		fmt.Printf("\nMedVault concurrency scaling — backend=%s, shards=%d, %d puts per run, GOMAXPROCS=%d\n\n",
			backend, shards, total, runtime.GOMAXPROCS(0))
		fmt.Printf("  %7s %8s %9s %10s %8s %8s %10s %8s", "workers", "puts", "seconds", "puts/sec", "speedup", "gets", "gets/sec", "gspeedup")
		if backend == "file" {
			fmt.Printf(" %8s %9s", "fsyncs", "batching")
		}
		fmt.Println()

		for _, w := range series {
			r, err := scalingRun(w, total, shards, backend)
			if err != nil {
				return err
			}
			if putBase == 0 {
				putBase = r.rate
			}
			if getBase == 0 {
				getBase = r.getRate
			}
			rows = append(rows, scalingRow{
				Shards: shards, Workers: w, Puts: r.puts, Seconds: r.secs,
				PutsPerSec: r.rate, Speedup: r.rate / putBase,
				Gets: r.gets, GetSeconds: r.getSecs,
				GetsPerSec: r.getRate, GetSpeedup: r.getRate / getBase,
				GroupCommits: r.groupCommits, WALAppends: r.walAppends,
				ShardPuts: r.shardPuts, ShardGets: r.shardGets,
			})
			fmt.Printf("  %7d %8d %9.3f %10.0f %7.2fx %8d %10.0f %7.2fx",
				w, r.puts, r.secs, r.rate, r.rate/putBase,
				r.gets, r.getRate, r.getRate/getBase)
			if backend == "file" {
				batching := float64(r.walAppends)
				if r.groupCommits > 0 {
					batching /= float64(r.groupCommits)
				}
				fmt.Printf(" %8d %9.1f", r.groupCommits, batching)
			}
			fmt.Println()
			if len(r.shardPuts) > 0 {
				fmt.Printf("  %7s per-shard puts %v, gets %v\n", "", r.shardPuts, r.shardGets)
			}
		}
	}
	if jsonOut {
		maxShards := 1
		for _, s := range shardCounts {
			if s > maxShards {
				maxShards = s
			}
		}
		return writeBenchJSON(benchReport{
			Mode: "scaling", Scale: scale, Backend: backend, Shards: maxShards, Scaling: rows,
		})
	}
	return nil
}

// parseShards parses the -shards flag: one shard count, or a comma-separated
// list of counts for -workers mode.
func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 || n > core.MaxShards {
			return nil, fmt.Errorf("-shards %q: each count must be 1..%d", s, core.MaxShards)
		}
		out = append(out, n)
	}
	return out, nil
}

// runReads measures the hot read path: a small record set is written once,
// then hammered with Gets (plus a slice of unknown-ID probes for the
// negative-lookup layer). With the caches on, steady state is all hits —
// no AES-GCM DEK unwrap, no blockstore read; with -no-cache every Get pays
// the full pipeline. Running both and diffing the BENCH JSONs is the
// before/after the bench trajectory records.
func runReads(total int, backend, scale string, shards int, noCache, jsonOut bool) error {
	if backend != "memory" && backend != "file" {
		return fmt.Errorf("unknown backend %q (want memory or file)", backend)
	}
	if scale != "full" && scale != "quick" {
		return fmt.Errorf("unknown scale %q", scale)
	}
	records := 200
	if scale == "quick" {
		records = 50
	}
	if records > total {
		records = total
	}

	cfg := core.Config{Name: "medbench-reads", Master: mustNewKey()}
	if noCache {
		cfg.DEKCacheEntries = -1
		cfg.BlockCacheBytes = -1
		cfg.NegCacheEntries = -1
	}
	if backend == "file" {
		dir, err := os.MkdirTemp("", "medbench-reads-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}
	cfg.Shards = shards
	v, err := core.Open(cfg)
	if err != nil {
		return err
	}
	defer v.Close()
	a, err := core.NewAdapter(v)
	if err != nil {
		return err
	}
	for i := 0; i < records; i++ {
		rec := ehr.Record{
			ID:      fmt.Sprintf("read-%d", i),
			Patient: "Read Patient", MRN: fmt.Sprintf("mrn-read-%d", i),
			Category: ehr.CategoryClinical, Author: "bench-admin",
			CreatedAt: experiments.Epoch,
			Title:     "read-path probe", Body: "cache benchmark record body",
		}
		if err := a.Put(rec); err != nil {
			return err
		}
	}

	cacheState := "enabled"
	if noCache {
		cacheState = "disabled"
	}
	fmt.Printf("MedVault read-path benchmark — backend=%s, shards=%d, %d records, %d gets, caches %s\n\n",
		backend, shards, records, total, cacheState)

	known, unknown := 0, 0
	start := time.Now()
	for i := 0; i < total; i++ {
		if i%10 == 9 {
			// Unknown-ID probe: must stay ErrNotFound and still be audited;
			// with caches on, repeats are negative-cache hits.
			if _, err := a.Get(fmt.Sprintf("missing-%d", i%records)); err == nil {
				return fmt.Errorf("probe of nonexistent record unexpectedly succeeded")
			}
			unknown++
			continue
		}
		if _, err := a.Get(fmt.Sprintf("read-%d", i%records)); err != nil {
			return err
		}
		known++
	}
	elapsed := time.Since(start).Seconds()
	fmt.Printf("  %d gets (%d known, %d unknown-ID probes) in %.3fs — %.0f gets/sec\n\n",
		total, known, unknown, elapsed, float64(total)/elapsed)
	printMetricsBreakdown(os.Stdout)
	printCacheCounters(os.Stdout)
	if jsonOut {
		return writeBenchJSON(benchReport{
			Mode: "reads", Scale: scale, Backend: backend, Shards: shards, CacheConfig: cacheState,
		})
	}
	return nil
}

// printCacheCounters renders the per-layer read-cache accounting.
func printCacheCounters(w *os.File) {
	fmt.Fprintln(w, "\nRead-cache counters (process-wide)")
	fmt.Fprintf(w, "  %-10s %10s %10s %10s %9s\n", "cache", "hits", "misses", "evictions", "hit rate")
	for _, row := range cacheRows() {
		fmt.Fprintf(w, "  %-10s %10d %10d %10d %8.1f%%\n",
			row.Cache, row.Hits, row.Misses, row.Evictions, 100*row.HitRate)
	}
}

type scalingResult struct {
	puts         uint64
	secs         float64
	rate         float64
	gets         uint64
	getSecs      float64
	getRate      float64
	groupCommits uint64
	walAppends   uint64
	shardPuts    []uint64 // per-shard successful puts, nil when shards == 1
	shardGets    []uint64
}

// scaleRecordID names the i'th record of worker g in the w-worker series
// entry. The ID is a pure function of (w, g, i) — no timestamps, no
// randomness — so every run of a given table row writes the exact same ID
// set, and the records' spread over cluster shards (core.ShardOf over these
// IDs) is reproducible run-to-run and comparable across hosts.
func scaleRecordID(w, g, i int) string {
	return fmt.Sprintf("scale-w%d-g%d-%d", w, g, i)
}

// scalingRun drives total puts, then total read-backs, through a fresh
// vault (or shards-wide cluster) from w workers and reports registry
// counter deltas plus wall time for each phase.
func scalingRun(w, total, shards int, backend string) (scalingResult, error) {
	cfg := core.Config{Name: "medbench-scaling", Master: mustNewKey(), Clock: nil}
	var dir string
	if backend == "file" {
		var err error
		if dir, err = os.MkdirTemp("", "medbench-scaling-*"); err != nil {
			return scalingResult{}, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}
	cfg.Shards = shards
	v, err := core.Open(cfg)
	if err != nil {
		return scalingResult{}, err
	}
	defer v.Close()
	a, err := core.NewAdapter(v)
	if err != nil {
		return scalingResult{}, err
	}

	putLabels := []obs.Label{obs.L("op", "put"), obs.L("outcome", "ok")}
	getLabels := []obs.Label{obs.L("op", "get"), obs.L("outcome", "ok")}
	putsBefore := counterSum("medvault_core_ops_total", putLabels...)
	gcBefore := counterValue("medvault_wal_group_commits_total")
	walBefore := counterValue("medvault_wal_appends_total")
	shardPutsBefore := shardOpCounts(shards, "put")
	shardGetsBefore := shardOpCounts(shards, "get")

	perWorker := total / w
	var wg sync.WaitGroup
	errs := make(chan error, w)
	start := time.Now()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := ehr.Record{
					ID:      scaleRecordID(w, g, i),
					Patient: "Scaling Patient", MRN: fmt.Sprintf("mrn-%d-%d-%d", w, g, i),
					Category: ehr.CategoryClinical, Author: "bench-admin",
					CreatedAt: experiments.Epoch,
					Title:     "scaling note", Body: "throughput probe",
				}
				if err := a.Put(rec); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	close(errs)
	for err := range errs {
		return scalingResult{}, err
	}

	// Read-back phase: each worker re-reads the records it wrote, so the
	// Get side of the table covers the same ID spread (and, on a cluster,
	// the same shard routing) as the Put side just exercised. Gets are
	// orders of magnitude faster than fsynced puts, so each worker makes
	// several passes — one pass finishes in milliseconds, too short to
	// measure a rate against scheduler noise.
	const readRounds = 4
	getsBefore := counterSum("medvault_core_ops_total", getLabels...)
	gerrs := make(chan error, w)
	gstart := time.Now()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < readRounds; r++ {
				for i := 0; i < perWorker; i++ {
					if _, err := a.Get(scaleRecordID(w, g, i)); err != nil {
						gerrs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	getElapsed := time.Since(gstart).Seconds()
	close(gerrs)
	for err := range gerrs {
		return scalingResult{}, err
	}

	puts := counterSum("medvault_core_ops_total", putLabels...) - putsBefore
	gets := counterSum("medvault_core_ops_total", getLabels...) - getsBefore
	return scalingResult{
		puts:         uint64(puts),
		secs:         elapsed,
		rate:         puts / elapsed,
		gets:         uint64(gets),
		getSecs:      getElapsed,
		getRate:      gets / getElapsed,
		groupCommits: uint64(counterValue("medvault_wal_group_commits_total") - gcBefore),
		walAppends:   uint64(counterValue("medvault_wal_appends_total") - walBefore),
		shardPuts:    shardDelta(shardOpCounts(shards, "put"), shardPutsBefore),
		shardGets:    shardDelta(shardOpCounts(shards, "get"), shardGetsBefore),
	}, nil
}

// shardOpCounts reads each shard's successful-op counter (the shard-labeled
// medvault_core_ops_total series a multi-shard cluster emits). Nil for a
// single vault, which has no shard label.
func shardOpCounts(shards int, op string) []float64 {
	if shards <= 1 {
		return nil
	}
	out := make([]float64, shards)
	for s := range out {
		out[s] = counterValue("medvault_core_ops_total",
			obs.L("op", op), obs.L("outcome", "ok"), obs.L("shard", strconv.Itoa(s)))
	}
	return out
}

// shardDelta subtracts per-shard before-counts from after-counts.
func shardDelta(after, before []float64) []uint64 {
	if after == nil {
		return nil
	}
	out := make([]uint64, len(after))
	for i := range after {
		out[i] = uint64(after[i] - before[i])
	}
	return out
}

// counterValue reads one counter series from the process registry; series
// labels must match wanted exactly (order-insensitive). Missing series read
// as zero, which is what a delta wants before the first increment.
func counterValue(name string, wanted ...obs.Label) float64 {
	for _, f := range obs.Default.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if len(s.Labels) != len(wanted) {
				continue
			}
			match := true
			for _, want := range wanted {
				found := false
				for _, l := range s.Labels {
					if l == want {
						found = true
						break
					}
				}
				if !found {
					match = false
					break
				}
			}
			if match {
				return s.Value
			}
		}
	}
	return 0
}

// counterSum totals every series of one counter family whose labels are a
// superset of wanted. Where counterValue pins one exact series, counterSum
// folds a label dimension away: summing {op=put, outcome=ok} counts both the
// unlabeled single-vault series and every shard-labeled cluster series, so
// the same bench code reads totals regardless of sharding.
func counterSum(name string, wanted ...obs.Label) float64 {
	var sum float64
	for _, f := range obs.Default.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			match := true
			for _, want := range wanted {
				found := false
				for _, l := range s.Labels {
					if l == want {
						found = true
						break
					}
				}
				if !found {
					match = false
					break
				}
			}
			if match {
				sum += s.Value
			}
		}
	}
	return sum
}

func mustNewKey() vcrypto.Key {
	k, err := vcrypto.NewKey()
	if err != nil {
		panic(err)
	}
	return k
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
