package main

import (
	"time"

	"rtreebuf/internal/stats"
)

// percentile returns the q-quantile of sorted by nearest rank.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supported returns q when at least ten of n samples lie beyond the
// q-quantile, and otherwise the highest lower quantile of which that is
// true (the median when none is).
func supported(n int, q float64) float64 {
	for _, try := range []float64{q, 0.95, 0.90, 0.75} {
		if try <= q && float64(n)*(1-try) >= 10 {
			return try
		}
	}
	return 0.5
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(stats.Median(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
