package main

import (
	"math"
	"sort"
)

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// minTail is how many samples must lie above a percentile before it may be
// reported: a tail figure resting on fewer is one unlucky solve, not a
// property of the code.
const minTail = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest nearest-rank percentile of xs that still has
// minTail samples above it, and that percentile in percent. It reports
// ok=false when not even the median qualifies (fewer than 2·minTail
// samples).
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	i := n - 1 - minTail
	if i < 0 || 2*(i+1) < n {
		return 0, 0, false
	}
	return sorted(xs)[i], 100 * float64(i+1) / float64(n), true
}

// spread is (max-min)/median of the non-negative xs: 0 when every sample
// agrees.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := median(s)
	if m <= 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / m
}

// selfTime is the part of a solve's wall time that no phase span covers:
// the driver loop's own work. The phases are disjoint and nested inside
// the solve, so a negative result means the accounting is broken.
func selfTime(wallNs int64, phaseHostNs []int64) int64 {
	var sum int64
	for _, h := range phaseHostNs {
		sum += h
	}
	return wallNs - sum
}
