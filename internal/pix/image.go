// Package pix is the image substrate for the benchmark applications of the
// paper's evaluation (§IV-A2). It provides a fixed-point image type with an
// arbitrary channel count, deterministic synthetic input generators (the
// offline stand-in for the PERFECT/AxBench image inputs; see DESIGN.md §2),
// Bayer mosaic construction for the debayer benchmark, and binary PGM/PPM
// encoding so outputs can be inspected with standard tools.
package pix

import "fmt"

// Image is a W x H image with C interleaved int32 channels in row-major
// order. Pixel values are conventionally 8-bit (0..255) but the type places
// no restriction, so intermediate fixed-point data (e.g. wavelet
// coefficients) can use the full int32 range.
type Image struct {
	W, H, C int
	Pix     []int32
}

// MaxSamples bounds an image's total sample count (W*H*C), protecting
// allocation from overflowed or absurd geometry.
const MaxSamples = 1 << 28

// New returns a zeroed image with the given geometry.
func New(w, h, c int) (*Image, error) {
	if w < 0 || h < 0 || c <= 0 {
		return nil, fmt.Errorf("pix: invalid geometry %dx%dx%d", w, h, c)
	}
	if total := int64(w) * int64(h) * int64(c); total > MaxSamples {
		return nil, fmt.Errorf("pix: geometry %dx%dx%d exceeds %d samples", w, h, c, MaxSamples)
	}
	return &Image{W: w, H: h, C: c, Pix: make([]int32, w*h*c)}, nil
}

// NewGray returns a zeroed single-channel image.
func NewGray(w, h int) (*Image, error) { return New(w, h, 1) }

// NewRGB returns a zeroed three-channel image.
func NewRGB(w, h int) (*Image, error) { return New(w, h, 3) }

// MustNew is New for known-good geometry; it panics on error and is
// intended for tests and internal construction.
func MustNew(w, h, c int) *Image {
	im, err := New(w, h, c)
	if err != nil {
		panic(err)
	}
	return im
}

// At returns the value of channel c at (x, y). Bounds are the caller's
// responsibility; out-of-range access panics like a slice access.
func (im *Image) At(x, y, c int) int32 { return im.Pix[(y*im.W+x)*im.C+c] }

// Set stores v in channel c at (x, y).
func (im *Image) Set(x, y, c int, v int32) { im.Pix[(y*im.W+x)*im.C+c] = v }

// Gray returns the single channel value at (x, y) of a 1-channel image.
func (im *Image) Gray(x, y int) int32 { return im.Pix[y*im.W+x] }

// SetGray stores v at (x, y) of a 1-channel image.
func (im *Image) SetGray(x, y int, v int32) { im.Pix[y*im.W+x] = v }

// Pixels reports the number of pixels (W*H).
func (im *Image) Pixels() int { return im.W * im.H }

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := &Image{W: im.W, H: im.H, C: im.C, Pix: make([]int32, len(im.Pix))}
	copy(out.Pix, im.Pix)
	return out
}

// CloneInto copies im into dst if geometries match, reusing dst's storage;
// otherwise it allocates. It returns the destination actually used.
func (im *Image) CloneInto(dst *Image) *Image {
	if dst == nil || dst.W != im.W || dst.H != im.H || dst.C != im.C || len(dst.Pix) != len(im.Pix) {
		return im.Clone()
	}
	copy(dst.Pix, im.Pix)
	return dst
}

// Equal reports whether the two images have identical geometry and pixels.
func (im *Image) Equal(other *Image) bool {
	if other == nil || im.W != other.W || im.H != other.H || im.C != other.C {
		return false
	}
	for i, v := range im.Pix {
		if other.Pix[i] != v {
			return false
		}
	}
	return true
}

// Fill sets every sample of the image to v.
func (im *Image) Fill(v int32) {
	for i := range im.Pix {
		im.Pix[i] = v
	}
}

// Clamp8 clamps every sample into the 8-bit range [0, 255].
func (im *Image) Clamp8() {
	for i, v := range im.Pix {
		im.Pix[i] = clamp8(v)
	}
}

// InBounds reports whether (x, y) lies inside the image.
func (im *Image) InBounds(x, y int) bool {
	return x >= 0 && x < im.W && y >= 0 && y < im.H
}

func clamp8(v int32) int32 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}
