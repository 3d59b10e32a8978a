// Package stats provides the measurement toolkit used to reproduce the
// paper's tables and figures: streaming summaries, empirical CDFs and
// quantiles, least-squares line fitting, and the Zipf / stretched-
// exponential popularity fitters of §3.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming count/min/max/mean/variance using
// Welford's algorithm. The zero value is ready to use.
type Summary struct {
	n    int
	min  float64
	max  float64
	mean float64
	m2   float64
}

// Add accumulates one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Min returns the smallest observation, or 0 if empty.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 if empty.
func (s *Summary) Max() float64 { return s.max }

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// MergeFrom folds another summary into s using the parallel form of
// Welford's update (Chan et al.), so merging per-shard summaries yields
// the same count/min/max/mean/variance a single pass over the combined
// stream would — the property the sharded replay engine's per-shard
// accumulators rely on. o is left untouched.
func (s *Summary) MergeFrom(o *Summary) {
	if o == nil || o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	n := s.n + o.n
	d := o.mean - s.mean
	s.mean += d * float64(o.n) / float64(n)
	s.m2 += o.m2 + d*d*float64(s.n)*float64(o.n)/float64(n)
	s.n = n
}

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// String formats the summary in the style the paper uses for its figure
// captions (Min / Median is not tracked here; see Sample for quantiles).
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g mean=%.4g max=%.4g sd=%.4g",
		s.n, s.min, s.mean, s.max, s.Stddev())
}

// Sample collects raw observations for quantile and CDF computation. The
// zero value is ready to use. It keeps every observation; for the scales
// in this repository (≤ a few million float64s) that is cheap and exact.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample pre-sized for n observations.
func NewSample(n int) *Sample {
	return &Sample{xs: make([]float64, 0, n)}
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddAll appends many observations.
func (s *Sample) AddAll(xs []float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// MergeFrom appends every observation of another sample into s, leaving o
// untouched. Quantiles over the merged sample equal quantiles over the
// concatenated streams (order never matters once sorted).
func (s *Sample) MergeFrom(o *Sample) {
	if o == nil || len(o.xs) == 0 {
		return
	}
	s.xs = append(s.xs, o.xs...)
	s.sorted = false
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the p-quantile (0 <= p <= 1) using linear interpolation
// between order statistics. It panics on an empty sample.
func (s *Sample) Quantile(p float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	s.ensureSorted()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := p * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	t := pos - float64(lo)
	return s.xs[lo]*(1-t) + s.xs[hi]*t
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min returns the smallest observation. It panics on an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		panic("stats: Min of empty sample")
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max returns the largest observation. It panics on an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		panic("stats: Max of empty sample")
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

// CDFAt returns the empirical fraction of observations <= v.
func (s *Sample) CDFAt(v float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	i := sort.SearchFloat64s(s.xs, math.Nextafter(v, math.Inf(1)))
	return float64(i) / float64(len(s.xs))
}

// CDFPoint is one point of an empirical CDF curve: fraction P of
// observations are <= V.
type CDFPoint struct {
	V float64
	P float64
}

// CDF returns the empirical CDF evaluated at k evenly spaced probability
// levels (1/k, 2/k, ..., 1). k must be positive.
func (s *Sample) CDF(k int) []CDFPoint {
	if k <= 0 {
		panic("stats: CDF requires k > 0")
	}
	out := make([]CDFPoint, k)
	for i := 1; i <= k; i++ {
		p := float64(i) / float64(k)
		out[i-1] = CDFPoint{V: s.Quantile(p), P: p}
	}
	return out
}

// Values returns a copy of the observations in sorted order.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}
