package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// values: the smallest value with at least q·n values at or below it.
// It returns NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// dist summarizes one sample of per-call values.
type dist struct {
	N   int
	P50 float64
	P99 float64
	Sum float64
}

// summarize sorts a copy of xs and returns its count, p50, p99 and sum.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: quantile(s, 0.50), P99: quantile(s, 0.99)}
	for _, v := range s {
		d.Sum += v
	}
	return d
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
