package perm

// Property tests for the paper's bijectivity requirement (§III-B2): every
// permutation constructor must produce a true bijection of [0, n). Unlike order_test.go these do not trust Order.IsBijective — they count
// occurrences independently, so a bug shared by a constructor and the
// checker cannot hide.

import (
	"fmt"
	"testing"
)

// constructors enumerates every Order constructor under a common signature.
func constructors() map[string]func(n int) (Order, error) {
	return map[string]func(n int) (Order, error){
		"Sequential":        Sequential,
		"ReverseSequential": ReverseSequential,
		"Tree1D":            Tree1D,
		"TreeND-1":          func(n int) (Order, error) { return TreeND(n) },
		"PseudoRandom-1":    func(n int) (Order, error) { return PseudoRandom(n, 1) },
		"PseudoRandom-99":   func(n int) (Order, error) { return PseudoRandom(n, 99) },
	}
}

// sweepSizes covers the shapes that break off-by-one permutation bugs:
// degenerate, exact powers of two, their neighbours, and odd composites.
var sweepSizes = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 255, 256, 257, 1000}

// countOccurrences tallies how often each index of [0, n) appears in the
// order, failing on any out-of-range value.
func countOccurrences(t *testing.T, label string, o Order, n int) []int {
	t.Helper()
	if o.Len() != n {
		t.Fatalf("%s: order length %d, want %d", label, o.Len(), n)
	}
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		v := o.At(i)
		if v < 0 || v >= n {
			t.Fatalf("%s: position %d holds %d, outside [0, %d)", label, i, v, n)
		}
		counts[v]++
	}
	return counts
}

func TestEveryConstructorIsBijection(t *testing.T) {
	for name, mk := range constructors() {
		for _, n := range sweepSizes {
			label := fmt.Sprintf("%s(n=%d)", name, n)
			o, err := mk(n)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for v, c := range countOccurrences(t, label, o, n) {
				if c != 1 {
					t.Fatalf("%s: index %d visited %d times, want exactly once", label, v, c)
				}
			}
			// The independent count and the package's own checker must agree.
			if !o.IsBijective() {
				t.Fatalf("%s: IsBijective() = false on a counted bijection", label)
			}
		}
	}
}

func TestTreeNDGridsAreBijections(t *testing.T) {
	grids := [][]int{
		{2, 2}, {4, 4}, {8, 8}, {3, 5}, {5, 3}, {1, 7}, {7, 1},
		{16, 9}, {9, 16}, {2, 3, 4}, {4, 3, 2}, {3, 3, 3}, {2, 2, 2, 2},
	}
	for _, dims := range grids {
		n := 1
		for _, d := range dims {
			n *= d
		}
		label := fmt.Sprintf("TreeND%v", dims)
		o, err := TreeND(dims...)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for v, c := range countOccurrences(t, label, o, n) {
			if c != 1 {
				t.Fatalf("%s: linear index %d visited %d times, want exactly once", label, v, c)
			}
		}
	}
}
