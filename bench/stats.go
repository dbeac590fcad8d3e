package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be more than an anecdote about the few slowest requests.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of
// sorted: the smallest sample with at least p·n samples at or below it.
// It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps 0.9·10 = 9.000000000000002 from rounding up a rank.
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// supportedPercentile returns the highest of the candidate percentiles
// that still has at least minBeyond samples beyond it among n samples,
// or 0.5 when none does.
func supportedPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		// The epsilon keeps 100·(1−0.9) = 9.999999999999998 from falling short.
		if float64(n)*(1-p) >= minBeyond-1e-9 {
			return p
		}
	}
	return 0.5
}

// sortedCopy returns xs sorted ascending without disturbing xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle of xs (the mean of the two middle values of
// an even count): the statistic runs of the same workload are compared by.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (exclusive
// method), which is what the acceptance check of the benchmark uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Position i·(n+1)/4 on a 1-based scale; j is clamped to 1..n-1
		// before delta is taken, so tiny samples extrapolate as Python does.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts durations to milliseconds, sorted ascending.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// itemP50 is the typical latency of a script item, in milliseconds: each
// item's own median, averaged over the items that have samples. A script
// mixes cheap and dear items, so the pooled latencies are multi-modal and
// their median sits on a boundary between two kinds of item, jumping from
// one to the other with the order the clients happen to walk (17–30%
// between seeds on analytics-cold); every item's own median is steady, and
// so is their mean.
func itemP50(perItem [][]time.Duration) float64 {
	var sum float64
	var n int
	for _, ds := range perItem {
		if len(ds) > 0 {
			sum += percentile(durationsMS(ds), 0.5)
			n++
		}
	}
	return ratio(sum, float64(n))
}

// ratio returns a/b, or 0 when b is 0 (an unused layer has no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
