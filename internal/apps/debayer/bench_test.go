package debayer

import (
	"testing"

	"anytime/internal/pix"
	"anytime/internal/testgate"
)

// The per-pixel bilinear interpolation is debayer's serving-path kernel;
// BENCH_kernels.json pins these numbers.

func benchMosaic(b *testing.B, w, h int) *pix.Image {
	b.Helper()
	rgb, err := pix.SyntheticRGB(w, h, 11)
	if err != nil {
		b.Fatal(err)
	}
	m, err := pix.BayerGRBG(rgb)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkInterpolateInterior is the hot case: all 3x3 neighbors in
// bounds, one pixel of each GRBG parity per iteration.
func BenchmarkInterpolateInterior(b *testing.B) {
	in := benchMosaic(b, 256, 256)
	var sink int32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := 64 + i%64*2
		r, g, bb := interpolate(in, x, 100)
		sink += r + g + bb
		r, g, bb = interpolate(in, x+1, 100)
		sink += r + g + bb
		r, g, bb = interpolate(in, x, 101)
		sink += r + g + bb
		r, g, bb = interpolate(in, x+1, 101)
		sink += r + g + bb
	}
	_ = sink
}

// BenchmarkInterpolateBorder clamps the neighborhood at the image edge —
// the slow path the interior fast path must not regress.
func BenchmarkInterpolateBorder(b *testing.B) {
	in := benchMosaic(b, 256, 256)
	var sink int32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, g, bb := interpolate(in, i%4, 0)
		sink += r + g + bb
	}
	_ = sink
}

// BenchmarkPrecise256 is the whole-image baseline pass (single worker).
func BenchmarkPrecise256(b *testing.B) {
	in := benchMosaic(b, 256, 256)
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
	m, _ := mosaic(t, 64, 64)
	testgate.Allocs(t, "interpolate interior", 0, func() { r, g, b := interpolate(m, 32, 33); allocSink += r + g + b })
	testgate.Allocs(t, "interpolate border", 0, func() { r, g, b := interpolate(m, 0, 63); allocSink += r + g + b })
	testgate.Allocs(t, "interpolateInterior", 0, func() { r, g, b := interpolateInterior(m, 33, 32); allocSink += r + g + b })
	testgate.Allocs(t, "channelAt", 0, func() { allocSink += channelAt(m, 0, 0, 2) })
	dst := make([]int32, 3*m.Pixels())
	testgate.Allocs(t, "interpolateRows", 0, func() { interpolateRows(m, dst, 1, 0, 2, 4, 16); allocSink += dst[3] })
}
