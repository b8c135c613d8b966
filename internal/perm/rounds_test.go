package perm

import (
	"fmt"
	"math/bits"
	"testing"
)

// TestTreeRoundsAreLatticeCosets checks the lattice fact Rounds is built on
// against the tree order itself: for every power-of-two round size, round m
// of the unclipped superset's tree order, clipped to the grid, is exactly
// the coset Coset(m) of the lattice SX × SY, holds Pixels(m) pixels, and is
// covered once, in row order, by the bands of any split of its positions.
// Round(x, y) names the round that visits each pixel, and SX·SY rounds of
// Size positions cover the superset.
func TestTreeRoundsAreLatticeCosets(t *testing.T) {
	for _, g := range [][2]int{{512, 512}, {256, 256}, {64, 512}, {512, 64}, {37, 45}, {1, 9}, {5, 17}, {1, 1}} {
		rows, cols := g[0], g[1]
		superRows, superCols := 1<<bits.Len(uint(rows-1)), 1<<bits.Len(uint(cols-1))
		tree, err := Tree2D(superRows, superCols)
		if err != nil {
			t.Fatal(err)
		}
		n := tree.Len()
		for size := 1; size <= n; size *= 2 {
			if rows*cols > 64*64 && size < n/64 {
				continue // the fine rounds of the large grids add time, not shapes
			}
			t.Run(fmt.Sprintf("%dx%d/g%d", rows, cols, size), func(t *testing.T) {
				r, err := TreeRounds(rows, cols, size+size/2) // rounds down to size
				if err != nil {
					t.Fatal(err)
				}
				if r.Size != size || r.Len()*r.Size != n || r.SX*r.SY != r.Len() {
					t.Fatalf("Size %d, %d rounds of %dx%d over %d positions", r.Size, r.Len(), r.SX, r.SY, n)
				}
				for m := range r.Len() {
					a, b := r.Coset(m)
					if a >= r.SX || b >= r.SY {
						t.Fatalf("round %d: coset (%d, %d) outside %dx%d", m, a, b, r.SX, r.SY)
					}
					in := map[[2]int]bool{}
					for pos := m * size; pos < (m+1)*size; pos++ {
						p := tree.At(pos)
						if x, y := p%superCols, p/superCols; x < cols && y < rows {
							in[[2]int{x, y}] = true
							if x%r.SX != a || y%r.SY != b || r.Round(x, y) != m {
								t.Fatalf("round %d visits (%d, %d), off the coset (%d, %d) mod (%d, %d)", m, x, y, a, b, r.SX, r.SY)
							}
						}
					}
					if len(in) != r.Pixels(m) {
						t.Fatalf("round %d visits %d pixels, Pixels says %d", m, len(in), r.Pixels(m))
					}
					// Split the round into spans of every length the round
					// loop could hand out; each band's points are the
					// round's, in row order, each once.
					for _, span := range []int{1, 3, size/2 + 1, size} {
						var seen [][2]int
						for pos := m * size; pos < (m+1)*size; pos += span {
							x0, y0, nrows := r.Band(pos, min(pos+span, (m+1)*size))
							for y := y0; y < y0+nrows*r.SY; y += r.SY {
								for x := x0; x < cols; x += r.SX {
									seen = append(seen, [2]int{x, y})
								}
							}
						}
						if len(seen) != len(in) {
							t.Fatalf("round %d, spans of %d: bands hold %d points, want %d", m, span, len(seen), len(in))
						}
						for i, p := range seen {
							if !in[p] || i > 0 && p[1]*cols+p[0] <= seen[i-1][1]*cols+seen[i-1][0] {
								t.Fatalf("round %d, spans of %d: band point %v is not the round's next in row order", m, span, p)
							}
						}
					}
				}
			})
		}
	}
	for _, bad := range [][3]int{{-1, 4, 1}, {4, -1, 1}, {4, 4, 0}} {
		if _, err := TreeRounds(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("TreeRounds%v accepted", bad)
		}
	}
	if r, err := TreeRounds(0, 7, 4); err != nil || r.Len() != 0 {
		t.Errorf("empty grid: %v, %d rounds", err, r.Len())
	}
}
