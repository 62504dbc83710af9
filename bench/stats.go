package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs, or the mean of the two middle
// values (NaN for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) ("exclusive"), the definition the
// benchmark's spread is judged by. With fewer than two values both
// quartiles are that value (NaN when empty).
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := slices.Sorted(slices.Values(xs))
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, and its value; ok is false with fewer than eleven samples.
func tail(xs []float64) (pct int, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := slices.Sorted(slices.Values(xs))
	return 100 * (n - 10) / n, s[n-11], true
}
