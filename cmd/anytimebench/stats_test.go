package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{1, 10}, {20, 10}, {21, 20}, {50, 30}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Always a sample, never an interpolation.
	if got := median([]float64{1, 2}); got != 1 {
		t.Errorf("median{1,2} = %v, want the lower sample 1", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0},    // nothing has ten samples beyond it
		{20, 50},   // rank 10, ten beyond
		{40, 75},   // rank 30, ten beyond
		{100, 90},  // rank 90, ten beyond; p95 leaves five
		{200, 95},  // rank 190
		{1000, 99}, // rank 990
		{9999, 99}, // p99.9 leaves nine
		{10000, 99.9},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPairedRatioMedian(t *testing.T) {
	// A host that slows down mid-run moves both members of a pair: the paired
	// ratio stays 3, the ratio of medians would not.
	num := []float64{30, 30, 60, 60, 60}
	den := []float64{10, 10, 20, 20, 20}
	if got := pairedRatioMedian(num, den); got != 3 {
		t.Errorf("paired ratio = %v, want 3", got)
	}
	if got := pairedRatioMedian([]float64{1, 4, 9}, []float64{1, 2, 0}); got != 1 {
		t.Errorf("a zero denominator must be skipped: got %v, want median{1,2} = 1", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean{2,8} = %v, want 4", got)
	}
	if got := geomean([]float64{0.5, 2}); !near(got, 1) {
		t.Errorf("halving one and doubling the other must cancel: got %v", got)
	}
	if got := geomean([]float64{3, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrShare(xs); !near(got, 1) {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 12, 11, 30, 13], n=4) == [10.5, 12.0, 21.5]
	if got := iqrShare([]float64{10, 12, 11, 30, 13}); !near(got, 11.0/12) {
		t.Errorf("iqrShare = %v, want 11/12", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 70},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "a.child", Start: 20, End: 30},
		{ID: 6, Parent: 1, Name: "inside-b", Start: 45, End: 60}, // wholly covered already
	}
	self := selfTimes(spans)
	// Children cover [10,70) and [90,100): 70 of the parent's 100.
	if self[1] != 30 {
		t.Errorf("request self time = %d, want 30", self[1])
	}
	if self[2] != 30 {
		t.Errorf("a self time = %d, want 40-10 = 30", self[2])
	}
	if self[3] != 30 || self[5] != 10 {
		t.Errorf("leaf self times = %d, %d, want their durations 30, 10", self[3], self[5])
	}
}
