package anytime

import "anytime/internal/pix"

// Image is the fixed-point image type used by the benchmark applications:
// W x H pixels with C interleaved int32 channels.
type Image = pix.Image

// NewGrayImage returns a zeroed single-channel image.
func NewGrayImage(w, h int) (*Image, error) { return pix.NewGray(w, h) }

// NewRGBImage returns a zeroed three-channel image.
func NewRGBImage(w, h int) (*Image, error) { return pix.NewRGB(w, h) }

// SyntheticGray returns a deterministic single-channel 8-bit test image.
func SyntheticGray(w, h int, seed uint64) (*Image, error) { return pix.SyntheticGray(w, h, seed) }

// SyntheticRGB returns a deterministic three-channel 8-bit test image.
func SyntheticRGB(w, h int, seed uint64) (*Image, error) { return pix.SyntheticRGB(w, h, seed) }

// HoldFill renders a displayable approximation from a partially computed
// image: unfilled pixels take the value of their nearest filled
// tree-sampling ancestor, turning a tree-order prefix into a complete
// low-resolution image (the approximate outputs of paper Figures 16–18).
func HoldFill(src *Image, filled []bool) (*Image, error) { return pix.HoldFill(src, filled) }

// WritePNMFile encodes an image to a binary PGM (1 channel) or PPM
// (3 channels) file.
func WritePNMFile(path string, im *Image) error { return pix.WritePNMFile(path, im) }

// ReadPNMFile decodes a binary PGM/PPM file.
func ReadPNMFile(path string) (*Image, error) { return pix.ReadPNMFile(path) }
