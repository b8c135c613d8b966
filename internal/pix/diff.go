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

// TileDiff compares two same-geometry images tile by tile and returns the
// set of tiles where they differ. It is the delta-start primitive for repeat
// traffic with small frame-to-frame changes (a video/stream scenario): diff
// the new input against the input whose output is cached, Dilate the result
// once per ring of stencil halo the consuming computation needs, and pass it
// as the stale set of a seeded run — only the changed tiles lose their
// cached values and hold-fill until recomputed.
func TileDiff(prev, next *Image) (*DirtyTiles, error) {
	if prev == nil || next == nil {
		return nil, fmt.Errorf("pix: TileDiff requires both images")
	}
	if prev.W != next.W || prev.H != next.H || prev.C != next.C {
		return nil, fmt.Errorf("pix: TileDiff geometry mismatch %dx%dx%d vs %dx%dx%d",
			prev.W, prev.H, prev.C, next.W, next.H, next.C)
	}
	g := NewTileGrid(next.W, next.H, next.C)
	d := NewDirtyTiles(g)
	for t := 0; t < g.Tiles(); t++ {
		x0, y0, x1, y1 := g.tileBounds(t)
		rowLen := (x1 - x0) * g.C
	rows:
		for y := y0; y < y1; y++ {
			off := (y*g.W + x0) * g.C
			pr := prev.Pix[off : off+rowLen]
			nr := next.Pix[off : off+rowLen]
			for i, v := range pr {
				if v != nr[i] {
					d.Mark(t)
					break rows
				}
			}
		}
	}
	return d, nil
}

// SeedFrame is the delta-start seed payload for tile apps: a cached output
// frame plus the set of tiles whose cached values are stale because the
// input changed there (typically TileDiff of the two inputs, Dilated by the
// consumer's stencil halo). A nil Stale set means every tile is trusted —
// the plain warm start. App OnSeed hooks accept either a bare *Image or a
// *SeedFrame.
type SeedFrame struct {
	Image *Image
	Stale *DirtyTiles
}

// AsSeedFrame normalizes a seed payload — a bare *Image or a *SeedFrame —
// into image + stale set, validating the payload type, the image geometry
// and the stale set's tile grid against the app's working frame. It is the
// front half of the image apps' one OnSeed hook (sampling.NewTreeImage),
// which therefore refuses a bad payload before touching any state.
func AsSeedFrame(seed any, w, h, c int) (*Image, *DirtyTiles, error) {
	var img *Image
	var stale *DirtyTiles
	switch p := seed.(type) {
	case *Image:
		img = p
	case *SeedFrame:
		if p == nil {
			return nil, nil, fmt.Errorf("pix: nil seed frame")
		}
		img, stale = p.Image, p.Stale
	default:
		return nil, nil, fmt.Errorf("pix: seed payload %T is neither *pix.Image nor *pix.SeedFrame", seed)
	}
	if img == nil {
		return nil, nil, fmt.Errorf("pix: seed payload has no image")
	}
	if img.W != w || img.H != h || img.C != c {
		return nil, nil, fmt.Errorf("pix: seed geometry %dx%dx%d does not match app %dx%dx%d",
			img.W, img.H, img.C, w, h, c)
	}
	if stale != nil && stale.g != NewTileGrid(w, h, c) {
		return nil, nil, fmt.Errorf("pix: seed stale grid %dx%dx%d does not match app %dx%dx%d",
			stale.g.W, stale.g.H, stale.g.C, w, h, c)
	}
	return img, stale, nil
}
