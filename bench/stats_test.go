package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false}, // 9 beyond
		{100, 0.9, true}, // 10 beyond
		{199, 0.95, false},
		{200, 0.95, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{19, 0.5, false},
		{20, 0.5, true},
		{100, 0.1, true}, // low tail counts the samples below it
		{99, 0.1, false},
	} {
		_, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.want {
			t.Errorf("percentile(%d samples, %g): err = %v, want accepted = %v", c.n, c.q, err, c.want)
		}
	}
	for _, q := range []float64{0, 1, -0.1, 1.5} {
		if _, err := percentile(seq(1000), q); err == nil {
			t.Errorf("percentile(q=%g) accepted", q)
		}
	}
}

func TestPercentileValues(t *testing.T) {
	xs := seq(101) // 1..101: the q-quantile is 1 + 100q
	for _, q := range []float64{0.5, 0.9, 0.25, 0.123} {
		got, err := percentile(xs, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 + 100*q; math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(1..101, %g) = %g, want %g", q, got, want)
		}
	}
	// The input is not reordered.
	ys := []float64{3, 1, 2}
	if m := median(ys); m != 2 || ys[0] != 3 {
		t.Errorf("median = %g, input now %v", m, ys)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %g, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of none = %g, want 0", m)
	}
}
