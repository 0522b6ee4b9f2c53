package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// when len(xs) is even) and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100)
// and whether at least minBeyond samples lie beyond it. Callers print the
// value only when ok is true.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps 99.9% of 1000 at rank 999 despite 99.9 not being
	// exactly representable.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// highestPercentile returns the highest of p99.9, p99, p95 and p90 that has
// at least minBeyond samples beyond it, with its label; ok is false when
// even p90 has too few (n < 100).
func highestPercentile(xs []float64) (label string, v float64, ok bool) {
	for _, c := range []struct {
		label string
		p     float64
	}{{"p99.9", 99.9}, {"p99", 99}, {"p95", 95}, {"p90", 90}} {
		if v, ok := percentile(xs, c.p); ok {
			return c.label, v, true
		}
	}
	return "", 0, false
}

// spread returns the distance between the first and third quartile of xs
// as a share of their median, the run-to-run noise figure a bound is held
// against. It needs at least four values; ok is false otherwise. The
// quartiles follow Python's statistics.quantiles(xs, n=4) (exclusive
// method), so the number matches the acceptance procedure's.
func spread(xs []float64) (share float64, ok bool) {
	n := len(xs)
	if n < 4 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based; 1 <= pos < n for n >= 4
		j := int(pos)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0, false
	}
	return (quartile(3) - quartile(1)) / math.Abs(m), true
}

// ratio returns a/b, or 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
