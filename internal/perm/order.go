package perm

import (
	"fmt"
	"math/bits"
)

// Order is a materialized bijective visit order of the index set [0, n):
// position i of the order names the i-th element to be sampled. Because the
// order is a bijection, a diffusive stage that consumes it processes every
// element exactly once and is therefore guaranteed to reach the precise
// output (paper §III-B2, requirement that p be bijective).
//
// Orders are immutable after construction and safe for concurrent readers.
type Order struct {
	idx []int32
}

// Len reports the number of indices in the order.
func (o Order) Len() int { return len(o.idx) }

// At returns the index visited at position i of the order.
func (o Order) At(i int) int { return int(o.idx[i]) }

// Indices returns a copy of the full visit order.
func (o Order) Indices() []int {
	out := make([]int, len(o.idx))
	for i, v := range o.idx {
		out[i] = int(v)
	}
	return out
}

// IsBijective verifies that the order visits every index of [0, Len())
// exactly once. It is O(n) and intended for tests and validation.
func (o Order) IsBijective() bool {
	seen := make([]bool, len(o.idx))
	for _, v := range o.idx {
		if v < 0 || int(v) >= len(o.idx) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// maxOrderLen bounds order sizes so the int32 backing store cannot overflow.
const maxOrderLen = 1 << 30

func checkLen(n int) error {
	if n < 0 {
		return fmt.Errorf("perm: negative order length %d", n)
	}
	if n > maxOrderLen {
		return fmt.Errorf("perm: order length %d exceeds maximum %d", n, maxOrderLen)
	}
	return nil
}

// Sequential returns the identity order p(i) = i. It is the paper's default
// permutation, suited to priority-ordered data sets such as bit planes in
// most-significant-first order.
func Sequential(n int) (Order, error) {
	if err := checkLen(n); err != nil {
		return Order{}, err
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return Order{idx: idx}, nil
}

// ReverseSequential returns the order p(i) = n-1-i, the descending variant
// of the sequential permutation (the paper's p(i) = n+1-i in 1-based form).
func ReverseSequential(n int) (Order, error) {
	if err := checkLen(n); err != nil {
		return Order{}, err
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(n - 1 - i)
	}
	return Order{idx: idx}, nil
}

// Tree1D returns the one-dimensional bit-reverse ("tree") order of paper
// Figure 4: indices are visited as a perfect binary tree, doubling the
// sampled resolution as each level completes. For n = 16 the order is
// 0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15.
//
// n need not be a power of two: the order enumerates the bit-reversed
// power-of-two superset and skips indices >= n, preserving bijectivity and
// the progressive-resolution property. It is TreeND with one dimension.
func Tree1D(n int) (Order, error) {
	return TreeND(n)
}

// Tree2D returns the two-dimensional tree order of paper Figure 5 for a
// rows x cols grid, yielding linear indices r*cols + c. The grid is sampled
// at progressively doubling two-dimensional resolution: after 4 elements a
// 2x2 grid has been touched, after 16 a 4x4 grid, and so on.
func Tree2D(rows, cols int) (Order, error) {
	return TreeND(rows, cols)
}

// TreeND returns the N-dimensional tree order for a grid with the given
// dimension sizes (slowest-varying dimension first), yielding linear
// row-major indices. Position bits of the sequence counter are dealt to the
// dimensions round-robin from the least-significant bit, and each
// dimension's coordinate takes its dealt bits most-significant-first —
// exactly the deinterleave-then-bit-reverse construction of paper §III-B2.
func TreeND(dims ...int) (Order, error) {
	if len(dims) == 0 {
		return Order{}, fmt.Errorf("perm: TreeND requires at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d < 0 {
			return Order{}, fmt.Errorf("perm: negative dimension %d", d)
		}
		if d > 0 && n > maxOrderLen/d {
			return Order{}, fmt.Errorf("perm: grid %v exceeds maximum order length", dims)
		}
		n *= d
	}
	if err := checkLen(n); err != nil {
		return Order{}, err
	}
	if n == 0 {
		return Order{idx: nil}, nil
	}

	deal := treeDeal(dims)
	coord := make([]uint32, len(dims))
	idx := make([]int32, 0, n)
	total := uint64(1) << len(deal)
	for j := uint64(0); j < total; j++ {
		treeCoords(j, deal, coord)
		linear := 0
		ok := true
		for k, d := range dims {
			if int(coord[k]) >= d {
				ok = false
				break
			}
			linear = linear*d + int(coord[k])
		}
		if ok {
			idx = append(idx, int32(linear))
		}
	}
	return Order{idx: idx}, nil
}

// treeDeal returns, for each bit of the tree order's sequence counter
// counting from the LSB, the dimension it is dealt to: round-robin across
// the dimensions whose power-of-two superset still has bits to take, the
// last dimension (fastest varying) first, matching the paper's 8x8 example
// where b0 becomes the column MSB.
func treeDeal(dims []int) []int {
	remaining := make([]int, len(dims))
	total := 0
	for k, d := range dims {
		if d > 1 {
			remaining[k] = bits.Len(uint(d - 1))
		}
		total += remaining[k]
	}
	deal := make([]int, 0, total)
	for len(deal) < total {
		for k := len(dims) - 1; k >= 0; k-- {
			if remaining[k] > 0 {
				deal = append(deal, k)
				remaining[k]--
			}
		}
	}
	return deal
}

// treeCoords sets coord to the superset coordinates the tree order visits at
// counter j: bit b of j goes to dimension deal[b], and the first bit dealt
// to a dimension becomes that coordinate's most significant bit.
func treeCoords(j uint64, deal []int, coord []uint32) {
	clear(coord)
	for b, k := range deal {
		coord[k] = coord[k]<<1 | uint32(j>>uint(b))&1
	}
}

// PseudoRandom returns a pseudo-random order generated by a maximal-length
// LFSR (paper §III-B2). The order is deterministic for a given (n, seed)
// pair, bijective, and free of memory-order bias, making it the recommended
// permutation for unordered data sets such as histogram or k-means inputs.
func PseudoRandom(n int, seed uint64) (Order, error) {
	if err := checkLen(n); err != nil {
		return Order{}, err
	}
	if n == 0 {
		return Order{idx: nil}, nil
	}
	if n == 1 {
		return Order{idx: []int32{0}}, nil
	}
	l, err := NewLFSR(bitsFor(n), seed)
	if err != nil {
		return Order{}, err
	}
	idx := make([]int32, 0, n)
	for period, step := l.Period(), uint64(0); step < period; step++ {
		v := int(l.Next()) - 1
		if v < n {
			idx = append(idx, int32(v))
			if len(idx) == n {
				break
			}
		}
	}
	return Order{idx: idx}, nil
}
