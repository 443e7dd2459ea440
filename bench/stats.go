package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; NaN when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the driver applies to the run-to-run values. Fewer than two
// values have no spread: both quartiles are the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// Computed after the clamp, so short inputs extrapolate
		// exactly as Python does.
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer and the tail value is one or two outliers.
const minBeyond = 10

// percentile is the nearest-rank p-th percentile (0 < p < 1). ok is
// false when fewer than minBeyond samples lie beyond it, so p95 needs
// 200 samples and is refused at 100.
func percentile(v []float64, p float64) (value float64, ok bool) {
	n := len(v)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return math.NaN(), false
	}
	return sorted(v)[rank-1], true
}
