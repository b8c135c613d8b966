package pix

import "fmt"

// HoldFill renders a displayable approximation from a partially computed
// image: every pixel not yet computed takes the value of its nearest
// computed ancestor in the 2D tree-sampling hierarchy (the pixel obtained
// by clearing low coordinate bits). Under the tree permutation of paper
// Figure 5 this turns a k-samples prefix into a complete low-resolution
// image whose resolution doubles as sampling proceeds — the approximate
// outputs visualized in the paper's Figures 16–18.
//
// filled[y*W+x] reports whether pixel (x, y) has been computed. The result
// is a fresh image; src is not modified. Pixels with no filled ancestor
// (possible only when nothing is filled) keep their src value.
func HoldFill(src *Image, filled []bool) (*Image, error) {
	if len(filled) != src.W*src.H {
		return nil, fmt.Errorf("pix: HoldFill mask length %d != %d pixels", len(filled), src.W*src.H)
	}
	out := src.Clone()
	if src.W == 0 || src.H == 0 {
		return out, nil
	}
	maxLevel := uint(0)
	for dim := max(src.W, src.H) - 1; dim > 0; dim >>= 1 {
		maxLevel++
	}
	// Propagate values down the block hierarchy, coarse to fine: each
	// unfilled block origin inherits from its (transitively inherited)
	// parent origin. One write per origin per level — O(pixels) total —
	// with the same result as probing each pixel's ancestor chain.
	have := make([]bool, len(filled))
	copy(have, filled)
	for lvl := int(maxLevel) - 1; lvl >= 0; lvl-- {
		step := 1 << lvl
		parentMask := ^(step<<1 - 1)
		for y := 0; y < src.H; y += step {
			py := y & parentMask
			for x := 0; x < src.W; x += step {
				if have[y*src.W+x] {
					continue
				}
				px := x & parentMask
				if !have[py*src.W+px] {
					continue
				}
				srcOff := (py*src.W + px) * src.C
				dstOff := (y*src.W + x) * src.C
				copy(out.Pix[dstOff:dstOff+src.C], out.Pix[srcOff:srcOff+src.C])
				have[y*src.W+x] = true
			}
		}
	}
	return out, nil
}
