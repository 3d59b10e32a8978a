package dist

import (
	"fmt"
	"math"
	"sort"
)

// Point is one knot of a piecewise-linear empirical CDF: P(X <= V) = P.
type Point struct {
	V float64 // value
	P float64 // cumulative probability in [0, 1]
}

// Empirical is a continuous distribution defined by a piecewise-linear CDF
// through a set of knots. It samples by inverse transform, interpolating
// linearly (in value space) between knots. This is the workhorse for
// reproducing the paper's published CDF shapes (Figures 5, 8, 9, 13, 14,
// 17) from their reported percentile anchors.
type Empirical struct {
	pts []Point
}

// NewEmpirical builds an empirical distribution from knots. The knots are
// sorted by cumulative probability; probabilities must be non-decreasing
// in value, start at 0 and end at 1 (both are clamped if within 1e-9).
// It returns an error for malformed inputs rather than panicking, because
// knot tables are often user/config supplied.
func NewEmpirical(pts []Point) (*Empirical, error) {
	if len(pts) < 2 {
		return nil, fmt.Errorf("dist: empirical CDF needs >= 2 knots, got %d", len(pts))
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	sort.Slice(cp, func(i, j int) bool { return cp[i].P < cp[j].P })
	if math.Abs(cp[0].P) > 1e-9 {
		return nil, fmt.Errorf("dist: empirical CDF must start at P=0, got %g", cp[0].P)
	}
	if math.Abs(cp[len(cp)-1].P-1) > 1e-9 {
		return nil, fmt.Errorf("dist: empirical CDF must end at P=1, got %g", cp[len(cp)-1].P)
	}
	cp[0].P = 0
	cp[len(cp)-1].P = 1
	for i := 1; i < len(cp); i++ {
		if cp[i].V < cp[i-1].V {
			return nil, fmt.Errorf("dist: empirical CDF values must be non-decreasing (knot %d: %g < %g)",
				i, cp[i].V, cp[i-1].V)
		}
	}
	return &Empirical{pts: cp}, nil
}

// MustEmpirical is like NewEmpirical but panics on malformed knots. Use it
// for compile-time-constant tables.
func MustEmpirical(pts []Point) *Empirical {
	e, err := NewEmpirical(pts)
	if err != nil {
		panic(err)
	}
	return e
}

// Sample draws one value by inverse-transform sampling.
func (e *Empirical) Sample(g *RNG) float64 {
	return e.Quantile(g.Float64())
}

// Quantile returns the value at cumulative probability p (clamped to
// [0, 1]), interpolating linearly between knots.
func (e *Empirical) Quantile(p float64) float64 {
	if p <= 0 {
		return e.pts[0].V
	}
	if p >= 1 {
		return e.pts[len(e.pts)-1].V
	}
	// Find the first knot with P >= p.
	i := sort.Search(len(e.pts), func(i int) bool { return e.pts[i].P >= p })
	if i == 0 {
		return e.pts[0].V
	}
	a, b := e.pts[i-1], e.pts[i]
	if b.P == a.P {
		return b.V
	}
	t := (p - a.P) / (b.P - a.P)
	return a.V + t*(b.V-a.V)
}

// CDF returns P(X <= v) under the piecewise-linear model.
func (e *Empirical) CDF(v float64) float64 {
	if v <= e.pts[0].V {
		return 0
	}
	last := e.pts[len(e.pts)-1]
	if v >= last.V {
		return 1
	}
	i := sort.Search(len(e.pts), func(i int) bool { return e.pts[i].V >= v })
	if i == 0 {
		return 0
	}
	a, b := e.pts[i-1], e.pts[i]
	if b.V == a.V {
		return b.P
	}
	t := (v - a.V) / (b.V - a.V)
	return a.P + t*(b.P-a.P)
}

// Mean returns the mean of the piecewise-linear distribution (each segment
// contributes its midpoint weighted by its probability mass).
func (e *Empirical) Mean() float64 {
	var m float64
	for i := 1; i < len(e.pts); i++ {
		a, b := e.pts[i-1], e.pts[i]
		m += (b.P - a.P) * (a.V + b.V) / 2
	}
	return m
}

// Min returns the smallest representable value.
func (e *Empirical) Min() float64 { return e.pts[0].V }

// Max returns the largest representable value.
func (e *Empirical) Max() float64 { return e.pts[len(e.pts)-1].V }
