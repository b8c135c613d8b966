package histeq

import (
	"testing"

	"anytime/internal/perm"
	"anytime/internal/pix"
	"anytime/internal/testgate"
)

// histeq's two diffusive stages are table-lookup kernels: the histogram
// build (one increment per sampled pixel) and the LUT application (one
// lookup + store per output pixel). Their per-element cost is what the
// batched diffusive runner has to keep proportionate; BENCH_kernels.json
// pins these numbers.

func benchGray(b *testing.B, w, h int) *pix.Image {
	b.Helper()
	img, err := pix.SyntheticGray(w, h, 13)
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// BenchmarkHistSampled builds the full histogram the way the hist stage
// samples it: each of its default eight rounds as the rows of one lattice
// coset, in memory order.
func BenchmarkHistSampled(b *testing.B) {
	in := benchGray(b, 256, 256)
	lat, total, err := histRounds(in.W, in.H)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(in.Pixels()) * 4)
	b.ReportAllocs()
	for b.Loop() {
		var h Hist
		for lo := 0; lo < total; lo += lat.Size {
			h.count(in, &lat, lo, lo+lat.Size)
		}
		if h.Processed != in.Pixels() {
			b.Fatalf("sampled %d of %d pixels", h.Processed, in.Pixels())
		}
	}
}

// BenchmarkApplyLUT runs the apply stage's inner loop over the tree order:
// one LUT lookup and one store per output pixel.
func BenchmarkApplyLUT(b *testing.B) {
	in, lut, out := benchApplyLUT(b)
	tree, err := perm.Tree2D(in.H, in.W)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		for pos := range tree.Len() {
			dst := tree.At(pos)
			out.Pix[dst] = lut.Map[binOf(in.Pix[dst])]
		}
	}
}

// BenchmarkApplyLUTRounds is BenchmarkApplyLUT the way the apply stage walks
// it: each of its default four rounds as the rows of its lattice, in memory
// order. The gap between the two is the locality the lattice walk recovers.
func BenchmarkApplyLUTRounds(b *testing.B) {
	in, lut, out := benchApplyLUT(b)
	rounds, err := perm.TreeRounds(in.H, in.W, in.Pixels()/4)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		for m := range rounds.Len() {
			x0, y0, rows := rounds.Band(m*rounds.Size, (m+1)*rounds.Size)
			for y := y0; y < y0+rows*rounds.SY; y += rounds.SY {
				for d := y*in.W + x0; d < (y+1)*in.W; d += rounds.SX {
					out.Pix[d] = lut.Map[binOf(in.Pix[d])]
				}
			}
		}
	}
}

// benchApplyLUT returns the input, its LUT and an output image, with the
// benchmark's byte count and allocation report set.
func benchApplyLUT(b *testing.B) (in *pix.Image, lut *LUT, out *pix.Image) {
	in = benchGray(b, 256, 256)
	var h Hist
	for _, v := range in.Pix {
		h.Counts[binOf(v)]++
	}
	b.SetBytes(int64(in.Pixels()) * 4)
	b.ReportAllocs()
	return in, buildLUT(buildCDF(&h)), pix.MustNew(in.W, in.H, 1)
}

// BenchmarkPrecise256 is the whole-image baseline pass (single worker).
func BenchmarkPrecise256(b *testing.B) {
	in := benchGray(b, 256, 256)
	b.SetBytes(int64(in.Pixels()) * 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Precise(in, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// allocSink keeps the gated calls' results alive: the two builders return a
// pointer to a table that must then be on the heap, which is their one
// allocation per consumed parent version.
var allocSink struct {
	cdf *CDF
	lut *LUT
	bin int
}

// TestKernelAllocBudget is the run-time allocation gate of the histeq
// kernels: binOf runs once per sampled pixel and may not allocate; buildCDF
// and buildLUT run once per consumed version and allocate the table they
// return, nothing else. Each row is a function and its budget.
func TestKernelAllocBudget(t *testing.T) {
	var h Hist
	for _, v := range testImage(t, 64, 64).Pix {
		h.Counts[binOf(v)]++
	}
	cdf := buildCDF(&h)
	testgate.Allocs(t, "binOf", 0, func() { allocSink.bin += binOf(300) + binOf(-1) + binOf(7) })
	testgate.Allocs(t, "buildCDF", 1, func() { allocSink.cdf = buildCDF(&h) })
	testgate.Allocs(t, "buildLUT", 1, func() { allocSink.lut = buildLUT(cdf) })
}
