package main

import "sort"

// sorted returns a sorted copy of v.
func sorted(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantileIndex is the nearest-rank index of the q-quantile among n
// sorted samples.
func quantileIndex(n int, q float64) int {
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// quantile returns the q-quantile of sorted samples, 0 when there are none.
func quantile(s []int64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s[quantileIndex(len(s), q)])
}

// beyond is how many of n samples lie above the q-quantile's rank: the
// number that decides whether the percentile is worth reporting.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - quantileIndex(n, q)
}

// medianFloat returns the median of v (the mean of the middle two for an
// even count), 0 when empty.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) does (the exclusive method). v needs two
// values or more.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
