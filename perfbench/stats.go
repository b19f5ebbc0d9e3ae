package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailPerMille are the percentiles a latency sample may report, in tenths
// of a percent, highest first.
var tailPerMille = []int{999, 990, 950, 900, 750, 500}

// supportedPercentile returns the highest percentile in tailPerMille that
// leaves at least 10 samples beyond it in a sample of n, or 0 when even the
// median does not (n < 20).
func supportedPercentile(n int) float64 {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// value with at least p percent of the sample at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}
