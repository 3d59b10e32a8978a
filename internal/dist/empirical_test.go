package dist

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func knots() []Point {
	return []Point{{0, 0}, {25, 0.5}, {100, 0.8}, {2370, 1}}
}

func TestNewEmpiricalValidation(t *testing.T) {
	cases := [][]Point{
		nil,
		{{1, 0}},
		{{0, 0.1}, {5, 1}},         // doesn't start at 0
		{{0, 0}, {5, 0.9}},         // doesn't end at 1
		{{0, 0}, {5, 0.5}, {3, 1}}, // values decrease
	}
	for i, pts := range cases {
		if _, err := NewEmpirical(pts); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestMustEmpiricalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustEmpirical did not panic on bad knots")
		}
	}()
	MustEmpirical([]Point{{0, 0.5}, {1, 0.7}})
}

func TestEmpiricalQuantileAnchors(t *testing.T) {
	e := MustEmpirical(knots())
	if got := e.Quantile(0.5); got != 25 {
		t.Fatalf("Quantile(0.5) = %g, want 25", got)
	}
	if got := e.Quantile(0); got != 0 {
		t.Fatalf("Quantile(0) = %g, want 0", got)
	}
	if got := e.Quantile(1); got != 2370 {
		t.Fatalf("Quantile(1) = %g, want 2370", got)
	}
	if got := e.Quantile(-0.5); got != 0 {
		t.Fatalf("Quantile(<0) = %g, want min", got)
	}
	if got := e.Quantile(2); got != 2370 {
		t.Fatalf("Quantile(>1) = %g, want max", got)
	}
}

func TestEmpiricalQuantileInterpolates(t *testing.T) {
	e := MustEmpirical(knots())
	got := e.Quantile(0.25) // halfway between knot(0,0) and knot(25,0.5)
	if math.Abs(got-12.5) > 1e-9 {
		t.Fatalf("Quantile(0.25) = %g, want 12.5", got)
	}
}

func TestEmpiricalCDFInvertsQuantile(t *testing.T) {
	e := MustEmpirical(knots())
	for _, p := range []float64{0.01, 0.1, 0.3, 0.5, 0.77, 0.9, 0.99} {
		v := e.Quantile(p)
		back := e.CDF(v)
		if math.Abs(back-p) > 1e-9 {
			t.Fatalf("CDF(Quantile(%g)) = %g", p, back)
		}
	}
}

func TestEmpiricalCDFBounds(t *testing.T) {
	e := MustEmpirical(knots())
	if e.CDF(-5) != 0 {
		t.Fatal("CDF below min must be 0")
	}
	if e.CDF(99999) != 1 {
		t.Fatal("CDF above max must be 1")
	}
}

func TestEmpiricalSampleWithinSupport(t *testing.T) {
	g := NewRNG(8)
	e := MustEmpirical(knots())
	for i := 0; i < 50000; i++ {
		v := e.Sample(g)
		if v < e.Min() || v > e.Max() {
			t.Fatalf("sample %g outside [%g, %g]", v, e.Min(), e.Max())
		}
	}
}

func TestEmpiricalSampleMedian(t *testing.T) {
	g := NewRNG(8)
	e := MustEmpirical(knots())
	n := 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = e.Sample(g)
	}
	sort.Float64s(vals)
	med := vals[n/2]
	if math.Abs(med-25) > 2 {
		t.Fatalf("sample median %g, want ~25", med)
	}
}

func TestEmpiricalMean(t *testing.T) {
	// Uniform on [0, 10]: mean must be 5.
	e := MustEmpirical([]Point{{0, 0}, {10, 1}})
	if m := e.Mean(); math.Abs(m-5) > 1e-9 {
		t.Fatalf("Mean = %g, want 5", m)
	}
}

// Property: for arbitrary valid monotone knot sets, Quantile is monotone
// non-decreasing in p.
func TestEmpiricalQuantileMonotoneProperty(t *testing.T) {
	f := func(raw [6]float64, p1, p2 float64) bool {
		vals := raw[:]
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			vals[i] = math.Mod(math.Abs(v), 1e6)
		}
		sort.Float64s(vals)
		pts := make([]Point, len(vals))
		for i, v := range vals {
			pts[i] = Point{V: v, P: float64(i) / float64(len(vals)-1)}
		}
		e, err := NewEmpirical(pts)
		if err != nil {
			return true
		}
		a := math.Mod(math.Abs(p1), 1)
		b := math.Mod(math.Abs(p2), 1)
		if a > b {
			a, b = b, a
		}
		return e.Quantile(a) <= e.Quantile(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
