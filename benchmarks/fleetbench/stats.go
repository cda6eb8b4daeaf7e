package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the nearest-rank position (1-based) of the q-quantile among
// n samples: the smallest count holding at least q·n of them. The
// epsilon keeps q·n from rounding up across an integer (0.99 × 1000 is
// 990, not 991).
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// the nearest-rank rule. It returns 0 for an empty sample.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[min(max(rank(len(asc), q), 1), len(asc))-1]
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// minBeyond is the choosing-metrics rule for tail percentiles: report a
// percentile only while at least this many samples lie beyond it.
const minBeyond = 10

// tailSupported reports whether an n-sample run supports the
// q-quantile under the minBeyond rule.
func tailSupported(n int, q float64) bool {
	return n-rank(n, q) >= minBeyond
}

// highestTail returns the highest of the usual tail percentiles that n
// samples support, or 0.5 when none does.
func highestTail(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9} {
		if tailSupported(n, q) {
			return q
		}
	}
	return 0.5
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durs converts durations to float64 through unit (ms or us).
func durs(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// timeEach runs fn n times and returns each call's duration.
func timeEach(n int, fn func(i int)) []time.Duration {
	out := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		out[i] = time.Since(t0)
	}
	return out
}
