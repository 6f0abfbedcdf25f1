package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// declared is the part of BENCHMARK.json the harness holds itself to: the
// metric names it must report, and the direction and bound calibration
// judges each end-to-end metric by.
type declared struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclared(root string) (declared, error) {
	var decl declared
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return decl, err
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return decl, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return decl, nil
}

// checkNames reports how the metrics a run produced differ from the names
// BENCHMARK.json declares; empty means they match exactly.
func checkNames(want []declaredMetric, got map[string]metric) (problems []string) {
	seen := map[string]bool{}
	for _, d := range want {
		seen[d.Name] = true
		if _, ok := got[d.Name]; !ok {
			problems = append(problems, "missing "+d.Name)
		}
	}
	for name := range got {
		if !seen[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	sort.Strings(problems)
	return problems
}

// calibrate runs the whole suite 2n times on the same code, alternately
// labelled A and B, each run on its own seed, and prints for every workload
// and end-to-end metric the two medians, how far apart they are (either way:
// the two sets ran the same code), the spread (IQR/median over all 2n runs)
// and whether both stay inside the bound BENCHMARK.json declares. It is how
// the bounds were set and how to check that they still hold on another host.
func (l *lab) calibrate(ctx context.Context, n int, seed int64, seconds int, opt runOpts) int {
	decl, err := loadDeclared(l.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("host: %s\ncalibrate: %d A/B pairs, seeds %d..%d, %d s runs\n", hostFacts(l.outDir), n, seed, seed+int64(2*n)-1, seconds)
	// values[workload][metric][0|1] = the A or B runs' values
	values := map[string]map[string]*[2][]float64{}
	failed := 0
	for i := 0; i < 2*n; i++ {
		for _, s := range specs {
			res, err := l.runEndToEnd(ctx, s, seed+int64(i), seconds, opt)
			if err != nil { // a cancelled ctx arrives here too
				fmt.Fprintf(os.Stderr, "bench: workload=%s seed=%d: %v\n", s.name, seed+int64(i), err)
				return 1
			}
			failed += res.Failed
			for _, f := range res.Failures {
				fmt.Printf("FAILED %s\n", f)
			}
			if values[s.name] == nil {
				values[s.name] = map[string]*[2][]float64{}
			}
			for name, m := range res.EndToEnd {
				if values[s.name][name] == nil {
					values[s.name][name] = &[2][]float64{}
				}
				values[s.name][name][i%2] = append(values[s.name][name][i%2], m.Value)
			}
			fmt.Printf("run %d/%d %s %-10s seed=%d timed=%.1fs failed=%d\n", i+1, 2*n, "AB"[i%2:i%2+1], s.name, seed+int64(i), res.TimedSecs, res.Failed)
		}
	}
	fmt.Printf("\n%-11s %-14s %12s %12s %9s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "|A-B|/A", "IQR/med", "bound", "verdict")
	bad := 0
	for _, s := range specs {
		for _, d := range decl.EndToEnd {
			ab := values[s.name][d.Name]
			if ab == nil {
				fmt.Printf("%-11s %-14s not reported\n", s.name, d.Name)
				bad++
				continue
			}
			a, b := median(ab[0]), median(ab[1])
			delta := math.Abs(b-a) / a
			spread := iqrShare(append(append([]float64(nil), ab[0]...), ab[1]...))
			verdict := "OK"
			if delta > d.Bound || spread > d.Bound {
				verdict = "OUTSIDE"
				bad++
			}
			fmt.Printf("%-11s %-14s %12.4f %12.4f %8.2f%% %8.2f%% %6.0f%%  %s\n",
				s.name, d.Name, a, b, 100*delta, 100*spread, 100*d.Bound, verdict)
		}
	}
	if bad > 0 || failed > 0 {
		fmt.Printf("\n%d pairs outside their bound, %d failed operations\n", bad, failed)
		return 1
	}
	fmt.Println("\nevery workload×metric pair inside its bound; 0 failed operations")
	return 0
}
