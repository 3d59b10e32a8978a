package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{4, 2, 8, 6} {
		s.Add(x)
	}
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("min/max = %g/%g", s.Min(), s.Max())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %g", s.Mean())
	}
	if s.Sum() != 20 {
		t.Fatalf("sum = %g", s.Sum())
	}
	// Sample variance of {4,2,8,6} = ((1+9+9+1)/3) = 20/3.
	if math.Abs(s.Variance()-20.0/3) > 1e-9 {
		t.Fatalf("variance = %g", s.Variance())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("empty summary should be all zero")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(7)
	if s.Min() != 7 || s.Max() != 7 || s.Mean() != 7 || s.Variance() != 0 {
		t.Fatal("single-element summary wrong")
	}
}

func TestSummaryMergeFromEqualsSingleStream(t *testing.T) {
	// Deterministic but irregular data split across three uneven parts:
	// the merged summary must match the single-stream one on every moment.
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = math.Sin(float64(i)*1.7)*1e6 + float64(i%13)
	}
	var whole Summary
	for _, x := range xs {
		whole.Add(x)
	}
	var parts [3]Summary
	for i, x := range xs {
		switch {
		case i < 10:
			parts[0].Add(x)
		case i < 200:
			parts[1].Add(x)
		default:
			parts[2].Add(x)
		}
	}
	var merged Summary
	for i := range parts {
		merged.MergeFrom(&parts[i])
	}
	if merged.N() != whole.N() {
		t.Fatalf("N = %d, want %d", merged.N(), whole.N())
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("min/max = %g/%g, want %g/%g",
			merged.Min(), merged.Max(), whole.Min(), whole.Max())
	}
	if d := math.Abs(merged.Mean() - whole.Mean()); d/math.Max(1, math.Abs(whole.Mean())) > 1e-12 {
		t.Fatalf("mean = %g, want %g", merged.Mean(), whole.Mean())
	}
	if d := math.Abs(merged.Variance() - whole.Variance()); d/whole.Variance() > 1e-12 {
		t.Fatalf("variance = %g, want %g", merged.Variance(), whole.Variance())
	}
}

func TestSummaryMergeFromEdgeCases(t *testing.T) {
	var s Summary
	s.Add(3)
	s.MergeFrom(nil)
	s.MergeFrom(&Summary{}) // empty other: no-op
	if s.N() != 1 || s.Mean() != 3 {
		t.Fatalf("after no-op merges: %v", s.String())
	}
	var empty Summary
	empty.MergeFrom(&s) // empty self: copy
	if empty.N() != 1 || empty.Min() != 3 || empty.Max() != 3 {
		t.Fatalf("empty-self merge: %v", empty.String())
	}
}

func TestSampleMergeFrom(t *testing.T) {
	a, b := &Sample{}, &Sample{}
	a.AddAll([]float64{5, 1})
	_ = a.Median() // force the sorted state; merge must invalidate it
	b.AddAll([]float64{4, 2, 3})
	a.MergeFrom(b)
	a.MergeFrom(nil)
	a.MergeFrom(&Sample{})
	if a.N() != 5 || a.Median() != 3 || a.Min() != 1 || a.Max() != 5 {
		t.Fatalf("merged sample: n=%d median=%g", a.N(), a.Median())
	}
	if b.N() != 3 {
		t.Fatalf("other sample mutated: n=%d", b.N())
	}
}

// Property: merging a randomly split stream equals summarizing it whole.
func TestSummaryMergeProperty(t *testing.T) {
	f := func(raw []float64, cut uint8) bool {
		var whole, left, right Summary
		for i, v := range raw {
			if math.IsNaN(v) || math.Abs(v) > 1e12 {
				return true
			}
			whole.Add(v)
			if i < int(cut)%(len(raw)+1) {
				left.Add(v)
			} else {
				right.Add(v)
			}
		}
		left.MergeFrom(&right)
		if left.N() != whole.N() || left.Min() != whole.Min() || left.Max() != whole.Max() {
			return false
		}
		scale := math.Max(1, math.Abs(whole.Mean()))
		if math.Abs(left.Mean()-whole.Mean())/scale > 1e-9 {
			return false
		}
		vscale := math.Max(1, whole.Variance())
		return math.Abs(left.Variance()-whole.Variance())/vscale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample(5)
	s.AddAll([]float64{10, 20, 30, 40, 50})
	if s.Median() != 30 {
		t.Fatalf("median = %g", s.Median())
	}
	if s.Quantile(0) != 10 || s.Quantile(1) != 50 {
		t.Fatal("extreme quantiles wrong")
	}
	// 0.25-quantile interpolates between 10 and 20... pos = 0.25*4 = 1 → 20.
	if got := s.Quantile(0.25); got != 20 {
		t.Fatalf("q25 = %g, want 20", got)
	}
	// pos = 0.1*4 = 0.4 → 10 + 0.4*10 = 14.
	if got := s.Quantile(0.1); math.Abs(got-14) > 1e-9 {
		t.Fatalf("q10 = %g, want 14", got)
	}
}

func TestSampleQuantileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile of empty sample must panic")
		}
	}()
	(&Sample{}).Quantile(0.5)
}

func TestSampleCDFAt(t *testing.T) {
	s := &Sample{}
	s.AddAll([]float64{1, 2, 2, 3})
	if got := s.CDFAt(2); got != 0.75 {
		t.Fatalf("CDFAt(2) = %g, want 0.75", got)
	}
	if got := s.CDFAt(0.5); got != 0 {
		t.Fatalf("CDFAt(0.5) = %g, want 0", got)
	}
	if got := s.CDFAt(3); got != 1 {
		t.Fatalf("CDFAt(3) = %g, want 1", got)
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	s := &Sample{}
	s.AddAll([]float64{1, 3})
	_ = s.Median()
	s.Add(2)
	if s.Median() != 2 {
		t.Fatalf("median after re-add = %g, want 2", s.Median())
	}
}

func TestSampleCDFLevels(t *testing.T) {
	s := &Sample{}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cdf := s.CDF(4)
	if len(cdf) != 4 {
		t.Fatalf("len = %d", len(cdf))
	}
	if cdf[3].P != 1 || cdf[3].V != 100 {
		t.Fatalf("last point = %+v", cdf[3])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].V < cdf[i-1].V {
			t.Fatal("CDF values must be non-decreasing")
		}
	}
}

func TestValuesSortedCopy(t *testing.T) {
	s := &Sample{}
	s.AddAll([]float64{3, 1, 2})
	v := s.Values()
	if !sort.Float64sAreSorted(v) {
		t.Fatal("Values not sorted")
	}
	v[0] = 999 // must not corrupt the sample
	if s.Min() == 999 {
		t.Fatal("Values returned an aliased slice")
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("R2 = %g, want 1", f.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Fatal("want error for single point")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("want error for length mismatch")
	}
	if _, err := FitLine([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Fatal("want error for zero x variance")
	}
}

func TestFitZipfRecoversExactLaw(t *testing.T) {
	// Generate y = 10^(b - a*log10 x) exactly; the fitter must recover a, b.
	a, b := 1.034, 6.0
	pop := make([]float64, 5000)
	for i := range pop {
		pop[i] = math.Pow(10, b-a*math.Log10(float64(i+1)))
	}
	fit, err := FitZipf(pop)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.A-a) > 1e-6 || math.Abs(fit.B-b) > 1e-6 {
		t.Fatalf("fit = %+v, want a=%g b=%g", fit, a, b)
	}
	if fit.RelErr > 1e-9 {
		t.Fatalf("RelErr = %g on exact data", fit.RelErr)
	}
}

func TestFitSERecoversExactLaw(t *testing.T) {
	a, b, c := 0.010, 1.134, 0.01
	pop := make([]float64, 2000)
	for i := range pop {
		v := b - a*math.Log10(float64(i+1))
		pop[i] = math.Pow(v, 1/c)
	}
	fit, err := FitSE(pop, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.A-a) > 1e-6 || math.Abs(fit.B-b) > 1e-6 {
		t.Fatalf("fit = %+v", fit)
	}
	if fit.RelErr > 1e-6 {
		t.Fatalf("RelErr = %g on exact data", fit.RelErr)
	}
}

func TestFitSkipsNonPositive(t *testing.T) {
	pop := []float64{100, 0, 50, -3, 25, 12, 6, 3}
	if _, err := FitZipf(pop); err != nil {
		t.Fatalf("FitZipf with zeros: %v", err)
	}
	if _, err := FitSE(pop, 0.01); err != nil {
		t.Fatalf("FitSE with zeros: %v", err)
	}
}

func TestFitSERejectsBadC(t *testing.T) {
	if _, err := FitSE([]float64{3, 2, 1}, 0); err == nil {
		t.Fatal("FitSE must reject c <= 0")
	}
}

// Property: quantiles are monotone in p for arbitrary samples.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		s := &Sample{}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		a := math.Mod(math.Abs(p1), 1)
		b := math.Mod(math.Abs(p2), 1)
		if a > b {
			a, b = b, a
		}
		return s.Quantile(a) <= s.Quantile(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summary.Mean matches Sample mean for the same data.
func TestSummarySampleMeanAgreeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		var sum Summary
		smp := &Sample{}
		for _, v := range raw {
			if math.IsNaN(v) || math.Abs(v) > 1e12 {
				return true
			}
			sum.Add(v)
			smp.Add(v)
		}
		diff := math.Abs(sum.Mean() - smp.Mean())
		scale := math.Max(1, math.Abs(sum.Mean()))
		return diff/scale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKSAgainstSelf(t *testing.T) {
	s := &Sample{}
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	// Reference: the exact uniform CDF the sample was drawn from.
	uniform := func(x float64) float64 {
		switch {
		case x < 1:
			return 0
		case x > 1000:
			return 1
		default:
			return x / 1000
		}
	}
	d, err := KSAgainst(s, uniform)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.01 {
		t.Fatalf("KS distance to own CDF = %g, want ≈0", d)
	}
}

func TestKSAgainstDetectsShift(t *testing.T) {
	s := &Sample{}
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	shifted := func(x float64) float64 {
		x -= 500 // a gross shift
		if x < 1 {
			return 0
		}
		if x > 1000 {
			return 1
		}
		return x / 1000
	}
	d, err := KSAgainst(s, shifted)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.4 {
		t.Fatalf("KS distance to shifted CDF = %g, want ≈0.5", d)
	}
}

func TestKSAgainstErrors(t *testing.T) {
	if _, err := KSAgainst(&Sample{}, func(float64) float64 { return 0 }); err == nil {
		t.Fatal("empty sample accepted")
	}
	s := &Sample{}
	s.Add(1)
	if _, err := KSAgainst(s, nil); err == nil {
		t.Fatal("nil reference accepted")
	}
}
