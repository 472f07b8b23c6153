package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, tc := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	// A failed operation is +Inf and counts as slower than any success.
	withFail := append(seq(9), math.Inf(1))
	if got := percentile(withFail, 0.9); got != 9 {
		t.Errorf("p90 with one failure in ten = %v, want 9", got)
	}
	if got := percentile(withFail, 0.95); !math.IsInf(got, 1) {
		t.Errorf("p95 with one failure in ten = %v, want +Inf", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		wantP  float64
		wantOK bool
	}{
		{1000, 0.99, true}, // 10 samples beyond p99
		{999, 0.9, true},   // only 9 beyond p99
		{100, 0.9, true},   // 10 beyond p90
		{99, 0.5, true},    // 9 beyond p90
		{20, 0.5, true},    // 10 beyond p50
		{19, 0.5, false},   // too few for any candidate
	} {
		p, v, ok := tailPercentile(seq(tc.n), 0.5, 0.9, 0.99)
		if p != tc.wantP || ok != tc.wantOK {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", tc.n, p, ok, tc.wantP, tc.wantOK)
		}
		if want := percentile(seq(tc.n), p); v != want {
			t.Errorf("n=%d: value %v, want %v", tc.n, v, want)
		}
	}
}
