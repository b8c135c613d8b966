package perm

import (
	"fmt"
	"math/bits"
)

// Rounds is Tree2D(rows, cols) cut into rounds on power-of-two boundaries
// of its sequence counter, counted over the unclipped power-of-two superset.
// TreeND deals the counter's high bits to the coordinates' low bits, so the
// positions [m·Size, (m+1)·Size) fix x mod SX and y mod SY and range over
// every higher bit: round m is the lattice coset {x ≡ a (mod SX), y ≡ b
// (mod SY)} clipped to the grid. Rounds are immutable and safe for
// concurrent readers.
type Rounds struct {
	Size   int // counter positions per round, a power of two
	SX, SY int // lattice spacings, powers of two; SX·SY is Len()

	rows, cols int
	width      int     // lattice points per superset row
	coset      []int32 // round m's offsets: a = coset[2m], b = coset[2m+1]
	round      []int32 // round[b*SX+a] is the round whose coset is (a, b)
}

// TreeRounds cuts Tree2D(rows, cols) into rounds of size counter positions,
// rounded down to a power of two and capped at the superset. An empty grid
// has no rounds.
func TreeRounds(rows, cols, size int) (Rounds, error) {
	if rows < 0 || cols < 0 || size < 1 {
		return Rounds{}, fmt.Errorf("perm: rounds of %d over a %dx%d grid", size, rows, cols)
	}
	if err := checkLen(rows * cols); err != nil {
		return Rounds{}, err
	}
	deal := treeDeal([]int{rows, cols})
	k := min(bits.Len(uint(size))-1, len(deal))
	r := Rounds{Size: 1 << k, SX: 1, SY: 1, rows: rows, cols: cols, width: 1}
	for b, d := range deal {
		switch {
		case b < k && d == 1:
			r.width <<= 1
		case b >= k && d == 1:
			r.SX <<= 1
		case b >= k:
			r.SY <<= 1
		}
	}
	if rows == 0 || cols == 0 {
		return r, nil
	}
	n := r.SX * r.SY
	r.coset, r.round = make([]int32, 2*n), make([]int32, n)
	var yx [2]uint32
	for m := range n {
		treeCoords(uint64(m)<<k, deal, yx[:]) // the low k bits are 0: the residues
		r.coset[2*m], r.coset[2*m+1] = int32(yx[1]), int32(yx[0])
		r.round[int(yx[0])*r.SX+int(yx[1])] = int32(m)
	}
	return r, nil
}

// Len reports the number of rounds.
func (r Rounds) Len() int { return len(r.round) }

// Coset returns round m's offsets: its points are (a + i·SX, b + j·SY).
func (r Rounds) Coset(m int) (a, b int) { return int(r.coset[2*m]), int(r.coset[2*m+1]) }

// Round returns the round that visits pixel (x, y).
func (r Rounds) Round(x, y int) int { return int(r.round[(y&(r.SY-1))*r.SX+x&(r.SX-1)]) }

// Pixels returns the number of grid pixels round m visits.
func (r Rounds) Pixels(m int) int {
	a, b := r.Coset(m)
	return max(r.cols-a+r.SX-1, 0) / r.SX * (max(r.rows-b+r.SY-1, 0) / r.SY)
}

// Band returns the lattice rows of a span [pos, end) of one round's counter
// positions — those whose first position lies in it — clipped to the grid:
// the points (x, y0 + i·SY), x0 ≤ x < cols stepping SX, for i < rows. The
// bands of a round's consecutive spans are consecutive and cover it.
func (r Rounds) Band(pos, end int) (x0, y0, rows int) {
	m := pos / r.Size
	x0, b := r.Coset(m)
	if x0 >= r.cols || b >= r.rows {
		return x0, b, 0
	}
	ceil := func(i int) int { return (i - m*r.Size + r.width - 1) / r.width }
	i0, i1 := ceil(pos), min(ceil(end), (r.rows-b+r.SY-1)/r.SY)
	return x0, b + i0*r.SY, max(i1-i0, 0)
}
