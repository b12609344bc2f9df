package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail read from fewer samples is noise.
const minBeyond = 10

// tailResolved reports whether n samples put at least minBeyond of
// them above the p-th percentile (nearest rank).
func tailResolved(n int, p float64) bool {
	rank := int(math.Ceil(float64(n) * p / 100))
	return n-rank >= minBeyond
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
