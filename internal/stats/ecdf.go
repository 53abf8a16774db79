package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample.
// The zero value is unusable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from the sample (a private sorted copy is
// taken; the input is not modified).
func NewECDF(xs []float64) ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return ECDF{sorted: s}
}

// Len returns the number of sample points.
func (e ECDF) Len() int { return len(e.sorted) }

// At returns the empirical probability P(X <= x).
func (e ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	// SearchFloat64s returns the first index >= x; advance over ties so the
	// CDF is right-continuous (counts values equal to x).
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// KolmogorovSmirnov returns the KS statistic D = sup |F_n(x) - F(x)| between
// a sorted sample and a model distribution. The input must be sorted
// ascending (FitBest sorts for you).
func KolmogorovSmirnov(sorted []float64, d Distribution) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	maxD := 0.0
	for i, x := range sorted {
		f := d.CDF(x)
		lo := math.Abs(f - float64(i)/float64(n))
		hi := math.Abs(float64(i+1)/float64(n) - f)
		if lo > maxD {
			maxD = lo
		}
		if hi > maxD {
			maxD = hi
		}
	}
	return maxD
}
