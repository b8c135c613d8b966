package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Beyond SNR, the approximate-computing literature the paper builds on
// characterizes output error by its distribution: mean relative error,
// error percentiles, and the fraction of elements within a tolerance.
// These are the whole-output acceptability predicates an accept function
// passed to StopWhen or serve.RunUntil is built from.

// RelMeanError returns the mean of |ref-approx| / max(|ref|, 1) — the
// standard mean relative error with a unit floor to keep zero-reference
// elements meaningful.
func RelMeanError(ref, approx []int32) (float64, error) {
	if err := checkLens(len(ref), len(approx)); err != nil {
		return 0, err
	}
	var sum float64
	for i := range ref {
		den := math.Abs(float64(ref[i]))
		if den < 1 {
			den = 1
		}
		sum += math.Abs(float64(ref[i])-float64(approx[i])) / den
	}
	return sum / float64(len(ref)), nil
}

// ErrorPercentile returns the p-th percentile (0 <= p <= 100) of the
// absolute elementwise error.
func ErrorPercentile(ref, approx []int32, p float64) (int64, error) {
	if err := checkLens(len(ref), len(approx)); err != nil {
		return 0, err
	}
	if p < 0 || p > 100 || math.IsNaN(p) {
		return 0, fmt.Errorf("metrics: percentile %v out of [0,100]", p)
	}
	errs := make([]int64, len(ref))
	for i := range ref {
		d := int64(ref[i]) - int64(approx[i])
		if d < 0 {
			d = -d
		}
		errs[i] = d
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i] < errs[j] })
	idx := int(math.Ceil(p/100*float64(len(errs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(errs) {
		idx = len(errs) - 1
	}
	return errs[idx], nil
}

// WithinTolerance returns the fraction of elements whose absolute error is
// at most tol.
func WithinTolerance(ref, approx []int32, tol int64) (float64, error) {
	if err := checkLens(len(ref), len(approx)); err != nil {
		return 0, err
	}
	if tol < 0 {
		return 0, fmt.Errorf("metrics: negative tolerance %d", tol)
	}
	ok := 0
	for i := range ref {
		d := int64(ref[i]) - int64(approx[i])
		if d < 0 {
			d = -d
		}
		if d <= tol {
			ok++
		}
	}
	return float64(ok) / float64(len(ref)), nil
}

// ErrorHistogram buckets absolute elementwise errors into bins of the
// given width (the last bin absorbs everything beyond bins*width).
func ErrorHistogram(ref, approx []int32, bins int, width int64) ([]int, error) {
	if err := checkLens(len(ref), len(approx)); err != nil {
		return nil, err
	}
	if bins < 1 || width < 1 {
		return nil, fmt.Errorf("metrics: invalid histogram shape bins=%d width=%d", bins, width)
	}
	out := make([]int, bins)
	for i := range ref {
		d := int64(ref[i]) - int64(approx[i])
		if d < 0 {
			d = -d
		}
		b := int(d / width)
		if b >= bins {
			b = bins - 1
		}
		out[b]++
	}
	return out, nil
}
