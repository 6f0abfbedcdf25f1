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
	"strings"
	"time"

	"medvault/internal/experiments"
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
	return nil
}
