package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestQuantileMatchesBruteForce checks the nearest-rank arithmetic
// against its definition: the smallest sample with at least q·n samples
// at or below it.
func TestQuantileMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 10, 99, 100, 101, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(rng.ExpFloat64() * 20) // ties included
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			want := math.Inf(1)
			for _, x := range xs {
				atOrBelow := 0
				for _, y := range xs {
					if y <= x {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= q*float64(n) && x < want {
					want = x
				}
			}
			if got := quantile(sorted, q); got != want {
				t.Errorf("n=%d q=%g: quantile = %g, brute force %g", n, q, got, want)
			}
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}
