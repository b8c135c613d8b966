package pix

import "fmt"

// DiffImage renders the per-pixel absolute error between a reference and an
// approximation as a single-channel heat image (multi-channel inputs take
// the per-pixel maximum across channels), scaled by gain and clamped to
// 8 bits. It is the visual counterpart of the SNR numbers in the paper's
// Figures 16–18: where an approximate output still differs from precise.
func DiffImage(ref, approx *Image, gain int32) (*Image, error) {
	if ref == nil || approx == nil {
		return nil, fmt.Errorf("pix: DiffImage requires both images")
	}
	if ref.W != approx.W || ref.H != approx.H || ref.C != approx.C {
		return nil, fmt.Errorf("pix: DiffImage geometry mismatch %dx%dx%d vs %dx%dx%d",
			ref.W, ref.H, ref.C, approx.W, approx.H, approx.C)
	}
	if gain < 1 {
		return nil, fmt.Errorf("pix: DiffImage gain %d must be positive", gain)
	}
	out, err := NewGray(ref.W, ref.H)
	if err != nil {
		return nil, err
	}
	for p := 0; p < ref.Pixels(); p++ {
		var worst int32
		for c := 0; c < ref.C; c++ {
			d := ref.Pix[p*ref.C+c] - approx.Pix[p*ref.C+c]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
		out.Pix[p] = clamp8(worst * gain)
	}
	return out, nil
}
