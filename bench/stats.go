package main

import (
	"math"
	"sort"
)

// summary is one metric's sample distribution: median, quartiles and
// count. The quartiles follow Python's statistics.quantiles(n=4)
// (the "exclusive" method), so a spread computed here matches one
// computed from the printed samples with the standard library.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the p-quantile (0 < p < 1) by the exclusive method:
// position p·(n+1) in the sorted sample, interpolated linearly between
// the neighbouring order statistics. Like Python's implementation it
// extrapolates from the two outermost samples when the position falls
// outside them.
func quantile(xs []float64, p float64) float64 {
	switch len(xs) {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := sorted(xs)
	h := p * float64(len(s)+1)
	j := min(max(int(math.Floor(h)), 1), len(s)-1)
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

func summarize(xs []float64) summary {
	return summary{Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
