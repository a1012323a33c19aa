package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the exact nearest-rank p-quantile (0 < p <= 1) of
// samples that are already sorted ascending: the smallest sample with at
// least p of the population at or below it. No interpolation and no
// buckets — a bucketed p90 moves in steps of the bucket width, which on
// sub-millisecond operations is wider than the regression bound.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (mean of the middle two for an even
// count) without reordering the caller's slice. NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) yields (the default "exclusive" method), so
// -compare judges spread with the same arithmetic the acceptance driver
// uses. It needs at least two values; ok is false otherwise.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return q, false
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q, true
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is judged against.
func spread(xs []float64) (float64, bool) {
	q, ok := quartiles(xs)
	switch {
	case !ok:
		return 0, false
	case q[2] == q[0]:
		return 0, true
	case q[1] == 0:
		return math.Inf(1), true
	}
	return (q[2] - q[0]) / math.Abs(q[1]), true
}
