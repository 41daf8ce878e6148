package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the middle two for an even
// count), 0 for no samples.
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

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the acceptance rule for this benchmark is stated in. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure a metric's bound is compared against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// worseBy returns the share of base by which cur is worse, given the
// metric's direction ("lower" or "higher" is better); negative when cur
// is better.
func worseBy(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}

// withinBound reports whether no two of the values differ by more than
// bound in the metric's worse direction, each taken in turn as the base.
func withinBound(xs []float64, better string, bound float64) bool {
	for _, a := range xs {
		for _, b := range xs {
			if worseBy(a, b, better) > bound {
				return false
			}
		}
	}
	return true
}
