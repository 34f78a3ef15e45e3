package main

import (
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of ds,
// which must be sorted ascending; 0 for an empty sample.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	idx := int(q*float64(len(ds))+0.999999) - 1 // ceil(q·n) − 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return ds[idx]
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// median returns the middle value of vals (mean of the two middle
// values for an even count); 0 for an empty sample. vals is not
// modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqrShare is the run-to-run spread the repeatability criterion uses:
// the distance between the first and third quartile as a share of the
// median. Quartiles follow Python's statistics.quantiles(n=4)
// (exclusive method), so the number matches the driver's. It needs at
// least two values; fewer give 0.
func iqrShare(vals []float64) float64 {
	n := len(vals)
	med := median(vals)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quart := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		lo := int(pos)
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	spread := (quart(3) - quart(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
