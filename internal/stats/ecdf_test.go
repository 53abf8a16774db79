package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2})
	cases := []struct {
		x, want float64
	}{
		{0, 0}, {1, 1.0 / 3}, {1.5, 1.0 / 3}, {2, 2.0 / 3}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("At(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if e.Len() != 3 {
		t.Errorf("Len = %d", e.Len())
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if got := e.At(5); got != 0 {
		t.Errorf("empty ECDF At = %g", got)
	}
	if e.Len() != 0 {
		t.Errorf("empty ECDF Len = %d", e.Len())
	}
}

func TestECDFTies(t *testing.T) {
	e := NewECDF([]float64{2, 2, 2, 5})
	if got := e.At(2); !almostEqual(got, 0.75, 1e-12) {
		t.Errorf("At(2) with ties = %g, want 0.75", got)
	}
}

func TestECDFDoesNotMutateInput(t *testing.T) {
	xs := []float64{9, 1, 5}
	NewECDF(xs)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestECDFMonotoneQuick(t *testing.T) {
	r := NewRNG(55)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Float64() * 1000
	}
	e := NewECDF(xs)
	f := func(a, b uint16) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return e.At(x) <= e.At(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestKolmogorovSmirnovSelf(t *testing.T) {
	// KS of a large sample against its own generating distribution is small.
	d := Weibull{Scale: 100, Shape: 0.8}
	xs := sample(d, 20000, 9)
	sort.Float64s(xs)
	if ks := KolmogorovSmirnov(xs, d); ks > 0.02 {
		t.Errorf("self KS = %g, want < 0.02", ks)
	}
	// Against a very different distribution it should be large.
	other := Exponential{Scale: 1e6}
	if ks := KolmogorovSmirnov(xs, other); ks < 0.5 {
		t.Errorf("cross KS = %g, want > 0.5", ks)
	}
}

func TestKolmogorovSmirnovEmpty(t *testing.T) {
	if ks := KolmogorovSmirnov(nil, Exponential{Scale: 1}); ks != 0 {
		t.Errorf("empty KS = %g", ks)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if !almostEqual(s.Std, math.Sqrt(2), 1e-12) {
		t.Errorf("Std = %g, want sqrt(2)", s.Std)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty Summarize = %+v", z)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(empty) did not panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Errorf("Mean = %g", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
}
