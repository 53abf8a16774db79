package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, and whether the sample supports it: a tail
// percentile needs at least ten samples beyond it, otherwise it is the
// luck of a handful of requests and ok is false.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = min(max(rank, 0), n-1)
	beyond := n - 1 - rank
	if q <= 0.5 {
		beyond = rank
	}
	return sorted[rank], beyond >= 10
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func sortedMs(ds []time.Duration) []float64 {
	out := msOf(ds)
	sort.Float64s(out)
	return out
}

// pOf is the q-quantile of ds in milliseconds.
func pOf(ds []time.Duration, q float64) float64 {
	v, _ := percentile(sortedMs(ds), q)
	return v
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles matches Python's statistics.quantiles(values, n=4), the rule
// the driver's spread check uses.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
