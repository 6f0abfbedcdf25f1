// Command bench is the MedVault benchmark: four fixed-work workloads driven
// through internal/medclient against a child medvaultd process, with a
// correctness gate on every answer, a kill -9 recovery check, and (with
// -trace 1) an in-process run that attributes time to each layer. See
// README.md for every metric and workload by name.
//
//	go run -C bench . [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-out file]
//	go run -C bench . -calibrate 5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the op counts in specs
// were sized against it.
const defaultSeconds = 10

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all four in turn)")
		seed      = flag.Int64("seed", 1, "seed every input is derived from")
		seconds   = flag.Int("seconds", defaultSeconds, "run length the fixed work is sized for")
		trace     = flag.Int("trace", 0, "1 = the traced in-process run that yields the per-layer metrics")
		out       = flag.String("out", "", "also write the machine-readable result to this file")
		calibrate = flag.Int("calibrate", 0, "run the suite 2N times as alternating A/B sets and print the A/A table")
		dataBase  = flag.String("data-base", "", "directory vault data dirs are made under (default bench/out/)")
		srvFlags  = flag.String("server-flags", "", "extra medvaultd flags, space-separated (resolving-power checks)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "bench: needs at least 2 CPUs: the load generator and medvaultd must not share one")
		return 2
	}
	// The harness never runs more client goroutines than connections (2), and
	// must not let its own runtime spread wider than that.
	runtime.GOMAXPROCS(2)
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1, -trace 0 or 1")
		return 2
	}
	run := specs
	if *workload != "" {
		s, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		run = []spec{s}
	}

	l, err := newLab()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer l.cleanup()
	// SIGINT/SIGTERM cancel the context everything runs under: the run in
	// progress returns, no further run starts, and the deferred cleanup kills
	// children and removes data directories. The handler is dropped at the
	// first signal, so a second one ends the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	opt := runOpts{setups: setupsPerRun, dataBase: *dataBase, extraFlags: strings.Fields(*srvFlags)}
	if *calibrate > 0 {
		return l.calibrate(ctx, *calibrate, *seed, *seconds, opt)
	}

	decl, err := loadDeclared(l.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	host := hostFacts(l.outDir)
	fmt.Printf("host: %s\n", host)
	var results []*runResult
	for _, s := range run {
		var res *runResult
		if *trace == 1 {
			res, err = l.runTraced(ctx, s, *seed, *seconds, opt)
		} else {
			res, err = l.runEndToEnd(ctx, s, *seed, *seconds, opt)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload=%s seed=%d: %v\n", s.name, *seed, err)
			return 1
		}
		printResult(res, *trace == 1)
		results = append(results, res)
		want, got := decl.EndToEnd, res.EndToEnd
		if *trace == 1 {
			want, got = decl.PerLayer, res.Layers
		}
		if problems := checkNames(want, got); len(problems) > 0 {
			fmt.Fprintf(os.Stderr, "bench: workload=%s reports other metrics than BENCHMARK.json declares: %s\n", s.name, strings.Join(problems, ", "))
			return 1
		}
	}
	if *out != "" {
		doc := map[string]any{"host": host, "seed": *seed, "seconds": *seconds, "trace": *trace, "results": results}
		b, _ := json.MarshalIndent(doc, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return printContractLine(results, *trace == 1)
}

// printResult prints every metric of one run by name, with unit and sample
// count, end-to-end first.
func printResult(res *runResult, traced bool) {
	fmt.Printf("\n== %s  seed=%d seconds=%d timed=%.2fs attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.TimedSecs, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
	printMetrics := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("-- %s\n", title)
		for _, n := range names {
			m := ms[n]
			line := fmt.Sprintf("   %-34s %14.4f %-6s", n, m.Value, m.Unit)
			if m.N > 0 {
				line += fmt.Sprintf(" n=%d", m.N)
			}
			fmt.Println(line)
		}
	}
	if !traced {
		printMetrics("end to end", res.EndToEnd)
	}
	printMetrics("per layer", res.Layers)
	for _, t := range res.Tails {
		fmt.Printf("   tail: %s\n", t)
	}
	for _, w := range res.Waterfall {
		fmt.Printf("   depth: %s\n", w)
	}
}

// printContractLine prints the one JSON object a caller parses, as the last
// line of standard output, and returns the exit code: non-zero when any
// answer failed the gate. One workload prints its metrics by bare name;
// several print them as workload/metric.
func printContractLine(results []*runResult, traced bool) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, res := range results {
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		ms := res.EndToEnd
		if traced {
			ms = res.Layers
		}
		for name, m := range ms {
			if len(results) > 1 {
				name = res.Workload + "/" + name
			}
			line.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	line.Correct = line.Failed == 0
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// hostFacts describes where the numbers were taken: they are the sandbox's,
// not a device's.
func hostFacts(dataDir string) string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s data-fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(dataDir))
}

// fsType names the filesystem holding dir, from /proc/mounts (longest
// mount-point prefix wins).
func fsType(dir string) string {
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
