package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of an ascending slice by
// nearest rank: the smallest value with at least q of the samples at or
// below it. An empty slice yields 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencySlices is how many equal-count slices a class's samples are cut
// into, in issue order, before the per-slice p50s are reduced to a median.
const latencySlices = 8

// slicedMedian is the benchmark's headline latency statistic: xs, in issue
// order, is cut into k equal-count slices (a remainder is dropped from the
// end), each slice reduced to its p50, and the k p50s to their median — so a
// burst of slow samples from one noisy neighbour moves one slice, not the
// result. With fewer than k samples it degrades to the plain median.
func slicedMedian(xs []float64, k int) float64 {
	per := len(xs) / k
	if per == 0 {
		return median(xs)
	}
	p50s := make([]float64, k)
	for i := range p50s {
		p50s[i] = percentile(sortedCopy(xs[i*per:(i+1)*per]), 0.5)
	}
	return median(p50s)
}

// tailQuantiles are the tails the report chooses among, lowest first.
var tailQuantiles = []struct {
	q     float64
	label string
}{{0.9, "p90"}, {0.99, "p99"}, {0.999, "p99.9"}, {0.9999, "p99.99"}}

// supportedTail picks the highest reported percentile that still has at
// least ten samples beyond it — the choosing-metrics rule for how far into
// the tail n samples can speak. Below 100 samples nothing qualifies and the
// label is empty.
func supportedTail(n int) (q float64, label string) {
	for _, t := range tailQuantiles {
		if float64(n)*(1-t.q) >= 10-1e-9 {
			q, label = t.q, t.label
		}
	}
	return q, label
}

// iqrShare is the spread statistic bounds are judged by: the distance
// between the first and third quartile as a share of the median, quartiles
// taken as Python's statistics.quantiles(values, n=4) takes them (exclusive
// method).
func iqrShare(xs []float64) float64 {
	s := sortedCopy(xs)
	m := median(s)
	if len(s) < 2 || m == 0 {
		return 0
	}
	quart := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (quart(3) - quart(1)) / math.Abs(m)
}
