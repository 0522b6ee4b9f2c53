package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort a copy
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// TestPercentileNeedsTenBeyond pins the rule that a percentile is given only
// when at least ten samples lie beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{100, 90, 90, true},   // ten beyond
		{100, 95, 95, false},  // five beyond
		{99, 90, 90, false},   // nine beyond
		{1000, 99, 990, true}, // ten beyond
		{1000, 99.9, 999, false},
		{9, 50, 5, false},
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %g) = %v, %t; want %v, %t", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	if _, _, ok := highestPercentile(seq(99)); ok {
		t.Error("99 samples: a percentile was given with nine samples beyond p90")
	}
	for _, c := range []struct {
		n     int
		label string
		want  float64
	}{{100, "p90", 90}, {200, "p95", 190}, {1000, "p99", 990}, {10000, "p99.9", 9990}} {
		label, v, ok := highestPercentile(seq(c.n))
		if !ok || label != c.label || v != c.want {
			t.Errorf("highestPercentile(1..%d) = %s %v %t, want %s %v", c.n, label, v, ok, c.label, c.want)
		}
	}
}

// TestSpreadMatchesPython compares with statistics.quantiles(xs, n=4), the
// procedure the benchmark is accepted by.
func TestSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{seq(10), (8.25 - 2.75) / 5.5},
		{[]float64{13, 10, 12, 11}, (12.75 - 10.25) / 11.5},
		{[]float64{5, 5, 5, 5, 5}, 0},
	} {
		got, ok := spread(c.xs)
		if !ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, %t; want %v", c.xs, got, ok, c.want)
		}
	}
	if _, ok := spread([]float64{1, 2, 3}); ok {
		t.Error("spread of three values reported as known")
	}
}
