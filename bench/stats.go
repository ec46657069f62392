package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the sample at or
// below it. It returns 0 for an empty sample.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// median returns the median of v (the mean of the middle two for an even
// count) without modifying it; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of v by the method of
// Python's statistics.quantiles(v, n=4) (exclusive, linear interpolation at
// positions (n+1)/4 and 3(n+1)/4), which is the spread the acceptance rule
// is stated in. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spreadPct is the interquartile range of v as a percentage of its median:
// how far apart the windows of one run lie.
func spreadPct(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return 100 * (q3 - q1) / math.Abs(m)
}
