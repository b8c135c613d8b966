package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of xs (p in (0, 100]): the
// smallest sample with at least p% of the samples at or below it. It is a
// sample, never an interpolation, so a reported tail is a latency some
// request actually saw. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples:
// the smallest rank with at least p% of the samples at or below it. The
// epsilon keeps p/100*n from rounding up when it is a whole number that
// floating point misses by an ulp (99.9% of 10000).
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailLadder is the set of percentiles a report may quote, lowest first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highestSupported returns the highest percentile of tailLadder that still
// has at least ten samples strictly beyond its nearest rank among n, or 0
// when n is too small to support even the median.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// geomean is the geometric mean of strictly positive values (0 if any value
// is non-positive or the input is empty): the right mean for combining
// per-app ratios, because halving one app and doubling another cancel.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// pairedRatioMedian is the median of num[i]/den[i] over paired samples.
// Pairing first and taking the median second cancels host-speed drift that
// moves both members of a pair; a ratio of medians would not.
func pairedRatioMedian(num, den []float64) float64 {
	n := min(len(num), len(den))
	r := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if den[i] > 0 {
			r = append(r, num[i]/den[i])
		}
	}
	return median(r)
}

// iqrShare is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), which is what
// the acceptance driver computes.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
