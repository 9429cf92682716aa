package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   sample
		want float64
	}{
		{nil, 0},
		{sample{7}, 7},
		{sample{3, 1, 2}, 2},
		{sample{4, 1, 3, 2}, 2.5},
	} {
		if got := tc.in.median(); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// Expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         sample
		q1, q2, q3 float64
	}{
		{sample{1, 2}, 0.75, 1.5, 2.25},
		{sample{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{sample{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 6, 9},
	} {
		q1, q2, q3 := tc.in.quartiles()
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := s.percentile(tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {108, 90},
		{864, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && beyond(tc.n, p) < 10 {
			t.Errorf("n=%d: p%v has only %d beyond", tc.n, p, beyond(tc.n, p))
		}
	}
}

func TestGroupMedianAndCounts(t *testing.T) {
	g := map[string]sample{"debra": {1, 2, 3}, "debra_af": {10, 20, 30, 40}}
	if got := groupMedian(g); !near(got, (2+25)/2.0) {
		t.Errorf("groupMedian = %v, want 13.5", got)
	}
	if got := groupCount(g); got != 7 {
		t.Errorf("groupCount = %d, want 7", got)
	}
	if got := len(pooled(g)); got != 7 {
		t.Errorf("pooled has %d observations, want 7", got)
	}
	if groupMedian(nil) != 0 {
		t.Error("groupMedian of no groups must be 0")
	}
}
