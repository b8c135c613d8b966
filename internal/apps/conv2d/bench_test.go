package conv2d

import (
	"testing"

	"anytime/internal/pix"
	"anytime/internal/testgate"
)

// The per-pixel convolution is the serving-path kernel: the automaton calls
// it once per sampled output pixel, so its cost (not the round loop's) is
// the floor of conv2d's time-to-precision. BENCH_kernels.json pins these.

func benchInput(b *testing.B, w, h int) *pix.Image {
	b.Helper()
	img, err := pix.SyntheticGray(w, h, 7)
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// BenchmarkConvolvePixelInterior is the hot case: a window fully inside the
// image, where no coordinate clamping is needed.
func BenchmarkConvolvePixelInterior(b *testing.B) {
	in := benchInput(b, 256, 256)
	weights, wsum := boxWeights()
	r := &reader{img: in}
	var sink int32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := 64 + i%128
		sink += convolvePixel(r, weights, wsum, in.W, in.H, 4, x, 128)
	}
	_ = sink
}

// BenchmarkConvolvePixelBorder keeps the window clamped on two sides — the
// slow path the interior fast path must not regress.
func BenchmarkConvolvePixelBorder(b *testing.B) {
	in := benchInput(b, 256, 256)
	weights, wsum := boxWeights()
	r := &reader{img: in}
	var sink int32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += convolvePixel(r, weights, wsum, in.W, in.H, 4, i%4, 2)
	}
	_ = sink
}

// BenchmarkPrecise256 is the whole-image baseline pass (single worker), the
// denominator of every anytime speedup figure.
func BenchmarkPrecise256(b *testing.B) {
	in := benchInput(b, 256, 256)
	b.SetBytes(int64(in.Pixels()) * 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Precise(in, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// allocSink keeps the gated calls' results alive so the compiler cannot
// drop them.
var allocSink int32

// TestKernelAllocBudget is the run-time allocation gate of the per-pixel
// kernels: the automaton calls them once per sampled pixel, so one
// allocation here is one per pixel. Each row is a function and its budget.
func TestKernelAllocBudget(t *testing.T) {
	in := testImage(t, 64, 64)
	weights, wsum := boxWeights()
	r := &reader{img: in}
	testgate.Allocs(t, "convolvePixel interior", 0, func() { allocSink += convolvePixel(r, weights, wsum, in.W, in.H, 4, 32, 32) })
	testgate.Allocs(t, "convolvePixel border", 0, func() { allocSink += convolvePixel(r, weights, wsum, in.W, in.H, 4, 1, 2) })
	testgate.Allocs(t, "convolveInterior", 0, func() { allocSink += convolveInterior(in.Pix, weights, wsum, in.W, 4, 32, 32) })
	dst := make([]int32, in.Pixels())
	testgate.Allocs(t, "convolveRows", 0, func() { convolveRows(r, weights, wsum, 4, dst, 1, 2, 4, 8, 8); allocSink += dst[2*in.W+1] })
}
