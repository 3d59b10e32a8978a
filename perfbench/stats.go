package main

import (
	"fmt"
	"math"
	"sort"
)

// latencySummary is computed from exact per-call samples, never from
// histogram buckets: p50 and p90 are sample values (nearest rank), and
// Beyond50/Beyond90 count the samples strictly greater than each.
type latencySummary struct {
	N        int
	P50, P90 float64
	Beyond50 int
	Beyond90 int
}

// summarize summarizes samples without reordering them.
func summarize(samples []float64) latencySummary {
	s := latencySummary{N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	samples = append([]float64(nil), samples...)
	sort.Float64s(samples)
	s.P50 = nearestRank(samples, 0.50)
	s.P90 = nearestRank(samples, 0.90)
	s.Beyond50 = len(samples) - sort.Search(len(samples), func(i int) bool { return samples[i] > s.P50 })
	s.Beyond90 = len(samples) - sort.Search(len(samples), func(i int) bool { return samples[i] > s.P90 })
	return s
}

func (s latencySummary) String() string {
	return fmt.Sprintf("n=%d p50=%.4g (%d beyond) p90=%.4g (%d beyond)",
		s.N, s.P50, s.Beyond50, s.P90, s.Beyond90)
}

// nearestRank is the q-quantile of sorted samples by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// median is the middle of the values (the mean of the middle two for an
// even count); it does not reorder its argument.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
