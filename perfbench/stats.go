package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must have beyond
// it: a tail figure resting on fewer samples is mostly noise.
const minTail = 10

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least p of the samples at or below it. +Inf
// samples (failed operations) sort last, so they count as slower than any
// success.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	r := int(math.Ceil(p*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(s) {
		r = len(s) - 1
	}
	return s[r]
}

// beyond returns how many of n samples lie strictly beyond the
// nearest-rank p-quantile.
func beyond(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		return 0
	}
	return n - r
}

// tailPercentile returns the highest of the candidate quantiles that has
// at least minTail samples beyond it, with its value. ok is false when not
// even the lowest candidate qualifies; p and v then describe that lowest
// candidate, so a caller can still print it together with the sample
// count.
func tailPercentile(xs []float64, candidates ...float64) (p, v float64, ok bool) {
	cs := sorted(candidates)
	for i := len(cs) - 1; i >= 0; i-- {
		if beyond(len(xs), cs[i]) >= minTail {
			return cs[i], percentile(xs, cs[i]), true
		}
	}
	if len(cs) == 0 {
		return 0, 0, false
	}
	return cs[0], percentile(xs, cs[0]), false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
