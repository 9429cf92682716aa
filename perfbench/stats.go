package main

import (
	"math"
	"sort"
)

// sample is one metric's per-trial (or per-sweep) observations.
type sample []float64

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median is the middle observation, or the mean of the two middle ones.
func (s sample) median() float64 {
	c := s.sorted()
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 by the method of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), the
// rule run-to-run spread is judged by; the text report gives each wall-clock
// timing's within-run quartiles the same way.
func (s sample) quartiles() (q1, q2, q3 float64) {
	c := s.sorted()
	n := len(c)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return c[0], c[0], c[0]
	}
	// CPython's exact integer form: j is clamped to 1..n-1, so delta may
	// fall outside 0..4 and the two end points extrapolate.
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (c[j-1]*(4-delta) + c[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func (s sample) percentile(p float64) float64 {
	c := s.sorted()
	if len(c) == 0 {
		return 0
	}
	return c[max(rank(len(c), p), 1)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n observations;
// the epsilon keeps float error (99.9% of 10000 is 9990.000000000002) from
// pushing it up a rank.
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// beyond counts the observations strictly ranked past the nearest-rank p-th
// percentile of n observations.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailPercentiles is the ladder the tail rule climbs.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tailPercentile is the highest ladder percentile that has at least ten
// observations beyond it, the tail a timing may honestly report for n
// samples; 0 when even the median has fewer than ten beyond.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// groupMedian is the mean of each group's median. A workload that alternates
// two configurations (update's debra/debra_af pair) has a bimodal sample;
// the median of the mix can fall in the gap between the modes and jump
// between them run to run, while the mean of the two modes' medians cannot.
func groupMedian(groups map[string]sample) float64 {
	if len(groups) == 0 {
		return 0
	}
	sum := 0.0
	for _, g := range groups {
		sum += g.median()
	}
	return sum / float64(len(groups))
}

// groupCount is the total number of observations across groups.
func groupCount(groups map[string]sample) int {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	return n
}

// pooled concatenates the groups' observations.
func pooled(groups map[string]sample) sample {
	var all sample
	for _, g := range groups {
		all = append(all, g...)
	}
	return all
}
