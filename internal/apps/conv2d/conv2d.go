// Package conv2d implements the 2dconv benchmark of the paper's evaluation
// (§IV-A2): a 2D convolution applying a blur filter to a grayscale image,
// "many dot products, computed for each pixel". Its anytime automaton is a
// single diffusive stage using output sampling with a two-dimensional tree
// permutation (Figures 11 and 16). The package also supports the two
// hardware-approximation studies run on 2dconv:
//
//   - reduced fixed-point pixel precision (Figure 19), via bit masking; and
//   - approximate storage for the input image (Figure 20), via the
//     fault-injecting array of internal/store.
package conv2d

import (
	"fmt"

	"anytime/internal/core"
	"anytime/internal/fixpoint"
	"anytime/internal/par"
	"anytime/internal/pix"
	"anytime/internal/sampling"
	"anytime/internal/store"
)

// kernelSize is the side of the blur kernel: the evaluation's filter is a
// 9×9 box (uniform mean) blur.
const kernelSize = 9

// Config parameterizes both the precise baseline and the anytime automaton.
// The zero value selects the defaults used throughout the evaluation.
type Config struct {
	// PixelBits is the input pixel precision in bits (1..8). Pixels keep
	// their top PixelBits bits before the convolution. Default 8 (precise).
	PixelBits uint
	// Workers is the number of sampling workers. Default 1.
	Workers int
	// Granularity is the number of output pixels computed per published
	// snapshot. Default pixels/32.
	Granularity int
	// Storage, if non-nil, routes input pixel reads through simulated
	// approximate storage with the given per-bit read upset probability.
	Storage *StorageConfig
	// Publish selects when round snapshots are built and published. The
	// default, core.PublishEveryRound, publishes at every round boundary.
	Publish core.PublishPolicy
	// OnSnapshot, if non-nil, is invoked with each round snapshot as it is
	// built — before it is published — together with the number of output
	// pixels computed so far (the sample-size axis of Figures 19–20, which a
	// core.Snapshot does not carry). It runs on the stage goroutine.
	OnSnapshot func(processed int, img *pix.Image)
}

// StorageConfig configures the simulated approximate input storage.
type StorageConfig struct {
	// Prob is the per-bit read upset probability.
	Prob float64
	// Seed makes the fault sequence reproducible.
	Seed uint64
}

func (cfg Config) withDefaults() Config {
	if cfg.PixelBits == 0 {
		cfg.PixelBits = 8
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	return cfg
}

func (cfg Config) validate(in *pix.Image) error {
	if in.C != 1 {
		return fmt.Errorf("conv2d: input must be grayscale, got %d channels", in.C)
	}
	if cfg.PixelBits < 1 || cfg.PixelBits > 8 {
		return fmt.Errorf("conv2d: pixel precision %d out of range [1,8]", cfg.PixelBits)
	}
	if cfg.Workers < 1 {
		return fmt.Errorf("conv2d: workers %d must be positive", cfg.Workers)
	}
	if cfg.Granularity < 0 {
		return fmt.Errorf("conv2d: negative granularity %d", cfg.Granularity)
	}
	if cfg.Storage != nil && (cfg.Storage.Prob < 0 || cfg.Storage.Prob > 1) {
		return fmt.Errorf("conv2d: storage probability %v out of range", cfg.Storage.Prob)
	}
	return nil
}

// boxWeights returns the separable 1D weight row of the blur kernel, all
// ones, and its total weight.
func boxWeights() ([]int64, int64) {
	w := make([]int64, kernelSize)
	for i := range w {
		w[i] = 1
	}
	return w, kernelSize
}

// reader abstracts how the convolution fetches input pixels: directly, with
// reduced precision, or through approximate storage.
type reader struct {
	img  *pix.Image
	arr  *store.Array // nil for reliable storage
	drop uint         // low bits to mask off
}

func (r *reader) at(x, y int) int32 {
	var v int32
	if r.arr != nil {
		v = r.arr.Read(y*r.img.W + x)
	} else {
		v = r.img.Gray(x, y)
	}
	return fixpoint.TruncateLow(v, r.drop)
}

// convolvePixel computes the filtered value of output pixel (x, y): the
// rounded weighted mean of the kernel window (separable weights), clamping
// coordinates at the borders.
//
// The common case — reliable full-precision reads with the window fully
// inside the image — takes a fast path over the raw pixel rows. Both paths
// compute the same integer sum (the fast path merely re-associates it as
// Σ_dy wy·(Σ_dx wx·v), exact in int64), so outputs are bit-identical.
// Reads through approximate storage always take the slow path: the fault
// stream of store.Array is stateful, so the read sequence must stay
// exactly as it was.
func convolvePixel(r *reader, weights []int64, wsum int64, w, h, half int, x, y int) int32 {
	if r.arr == nil && r.drop == 0 && x >= half && y >= half && x+half < w && y+half < h {
		return convolveInterior(r.img.Pix, weights, wsum, w, half, x, y)
	}
	var sum int64
	for dy := -half; dy <= half; dy++ {
		yy := min(max(y+dy, 0), h-1)
		wy := weights[dy+half]
		for dx := -half; dx <= half; dx++ {
			xx := min(max(x+dx, 0), w-1)
			sum += wy * weights[dx+half] * int64(r.at(xx, yy))
		}
	}
	total := wsum * wsum
	return int32((sum + total/2) / total)
}

// convolveInterior is convolvePixel's hot path: no clamping, no reader
// indirection. Each kernel row is re-sliced once (one bounds check per
// row, eliminated inside the loop by the full-slice expression) and the
// row sum is unrolled four wide so the multiply-accumulate chains
// pipeline.
func convolveInterior(px []int32, weights []int64, wsum int64, w, half, x, y int) int32 {
	size := 2*half + 1
	weights = weights[:size:size]
	var sum int64
	base := (y-half)*w + x - half
	for dy := 0; dy < size; dy++ {
		row := px[base : base+size : base+size]
		var rs int64
		dx := 0
		for ; dx+4 <= size; dx += 4 {
			rs += weights[dx]*int64(row[dx]) +
				weights[dx+1]*int64(row[dx+1]) +
				weights[dx+2]*int64(row[dx+2]) +
				weights[dx+3]*int64(row[dx+3])
		}
		for ; dx < size; dx++ {
			rs += weights[dx] * int64(row[dx])
		}
		sum += weights[dy] * rs
		base += w
	}
	total := wsum * wsum
	return int32((sum + total/2) / total)
}

// Precise computes the baseline blurred image in parallel over row bands,
// using the same per-pixel computation as the automaton (with reliable
// full-precision reads regardless of cfg's approximation settings).
func Precise(in *pix.Image, cfg Config) (*pix.Image, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	out, err := pix.NewGray(in.W, in.H)
	if err != nil {
		return nil, err
	}
	half := kernelSize / 2
	weights, wsum := boxWeights()
	par.Rows(in.H, cfg.Workers, func(y0, y1 int) {
		band := reader{img: in}
		for y := y0; y < y1; y++ {
			for x := 0; x < in.W; x++ {
				out.SetGray(x, y, convolvePixel(&band, weights, wsum, in.W, in.H, half, x, y))
			}
		}
	})
	return out, nil
}

// convolveRows writes the filtered value of every pixel of a band of
// lattice rows into dst: (x, y0 + i·sy) for x0 ≤ x < W stepping sx, i < rows.
func convolveRows(r *reader, weights []int64, wsum int64, half int, dst []int32, x0, y0, sx, sy, rows int) {
	w, h := r.img.W, r.img.H
	for y := y0; y < y0+rows*sy; y += sy {
		for x := x0; x < w; x += sx {
			dst[y*w+x] = convolvePixel(r, weights, wsum, w, h, half, x, y)
		}
	}
}

// Run is a constructed 2dconv anytime automaton with its output buffer.
type Run struct {
	Automaton *core.Automaton
	Out       *core.Buffer[*pix.Image]
}

// New builds the 2dconv anytime automaton: one diffusive stage that
// computes output pixels in 2D tree order, publishing progressively
// higher-resolution approximations (unvisited pixels are hold-filled from
// their tree ancestors) and finally the precise blurred image.
func New(in *pix.Image, cfg Config) (*Run, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	a := core.New()
	t, err := sampling.NewTreeImage(a, "conv2d", in.W, in.H, 1)
	if err != nil {
		return nil, err
	}
	t.OnSnapshot = cfg.OnSnapshot
	half := kernelSize / 2
	weights, wsum := boxWeights()
	drop := uint(8 - cfg.PixelBits)

	// One reader per worker: the approximate storage array is stateful and
	// not concurrency-safe, so each worker reads through a private copy,
	// modelling per-thread access to its own faulty bank.
	readers := make([]*reader, cfg.Workers)
	for w := range readers {
		readers[w] = &reader{img: in, drop: drop}
		if cfg.Storage != nil {
			arr, err := store.NewArray(in.Pix, 8, cfg.Storage.Prob, cfg.Storage.Seed+uint64(w)*0x9E3779B9)
			if err != nil {
				return nil, err
			}
			readers[w].arr = arr
		}
	}

	round := core.RoundConfig{Granularity: cfg.Granularity, Workers: cfg.Workers, Policy: cfg.Publish}
	err = a.AddStage("convolve", func(c *core.Context) error {
		return t.Pass(c, func(worker, x0, y0, sx, sy, rows int) error {
			convolveRows(readers[worker], weights, wsum, half, t.Working.Pix, x0, y0, sx, sy, rows)
			return nil
		}, round, true)
	})
	if err != nil {
		return nil, err
	}
	return &Run{Automaton: a, Out: t.Out}, nil
}
