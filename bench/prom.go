package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"medvault/internal/medclient"
)

// promSnapshot is one /metrics scrape: series (name plus label set, as
// printed) to value.
type promSnapshot map[string]float64

// parseProm reads the Prometheus text format as far as the benchmark needs
// it: one `series value` per line, comments skipped.
func parseProm(text string) promSnapshot {
	out := promSnapshot{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// scrape reads the /metrics of the server at base.
func scrape(ctx context.Context, base string) (promSnapshot, error) {
	text, _, err := medclient.New(base).Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("metrics snapshot: %w", err)
	}
	return parseProm(text), nil
}

// serverLayers derives the program's own counts over the timed phase from
// two scrapes of the child's /metrics. They are informational: the program
// could redefine them, so no claim may rest on them alone.
func serverLayers(ly map[string]metric, before, after promSnapshot) {
	delta := func(series string) float64 { return after[series] - before[series] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	for name, cache := range map[string]string{
		"core.block_hit_ratio":  "block",
		"core.neg_hit_ratio":    "negative",
		"vcrypto.dek_hit_ratio": "dek",
	} {
		hits := delta(`medvault_cache_hits_total{cache="` + cache + `"}`)
		misses := delta(`medvault_cache_misses_total{cache="` + cache + `"}`)
		ly[name] = metric{Value: ratio(hits, hits+misses), Unit: "ratio", N: int(hits + misses)}
	}
	commits := delta("medvault_wal_group_commits_total")
	ly["wal.group_size"] = metric{Value: ratio(delta("medvault_wal_appends_total"), commits), Unit: "count", N: int(commits)}
	ly["server.gc_pause_ms"] = metric{Value: delta("medvault_gc_pause_seconds_sum") * 1000, Unit: "ms",
		N: int(delta("medvault_gc_pause_seconds_count"))}
}
