package dwt53

import (
	"fmt"

	"anytime/internal/core"
	"anytime/internal/par"
	"anytime/internal/pix"
)

// levels is the number of wavelet decomposition levels.
const levels = 3

// strides is the loop perforation ladder of the iterative forward stage
// (paper §III-B1, "Loop Perforation"): each pass re-executes the transform
// computing every stride-th coefficient of each lifting step, the strides
// strictly decrease, and the final stride-1 pass is the precise transform.
var strides = [...]int{8, 4, 2, 1}

// Config parameterizes the baseline and the automaton.
type Config struct {
	// Workers is the number of row/column workers. Default 1.
	Workers int
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	return cfg
}

func (cfg Config) validate(in *pix.Image) error {
	if in.C != 1 {
		return fmt.Errorf("dwt53: input must be grayscale, got %d channels", in.C)
	}
	if cfg.Workers < 1 {
		return fmt.Errorf("dwt53: workers %d must be positive", cfg.Workers)
	}
	return nil
}

// regionSizes returns the (w, h) of each decomposition level's region,
// level 0 first.
func regionSizes(w, h, levels int) [][2]int {
	out := make([][2]int, 0, levels)
	for l := 0; l < levels && w >= 2 && h >= 2; l++ {
		out = append(out, [2]int{w, h})
		w = (w + 1) / 2
		h = (h + 1) / 2
	}
	return out
}

// Forward computes the multi-level perforated forward transform of in with
// the given coefficient stride, returning the coefficient plane. Stride 1
// is the precise reversible transform.
func Forward(in *pix.Image, cfg Config, stride int) (*pix.Image, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	if stride < 1 {
		return nil, fmt.Errorf("dwt53: stride %d must be positive", stride)
	}
	buf := in.Clone()
	for _, wh := range regionSizes(in.W, in.H, levels) {
		w, h := wh[0], wh[1]
		// Rows.
		par.Index(h, cfg.Workers, func(y int) {
			row := buf.Pix[y*in.W : y*in.W+w]
			scratch := make([]int32, w)
			fwdLift1D(func(i int) int32 { return row[i] },
				func(i int, v int32) { scratch[i] = v }, w, stride)
			copy(row, scratch)
		})
		// Columns.
		par.Index(w, cfg.Workers, func(x int) {
			scratch := make([]int32, h)
			fwdLift1D(func(i int) int32 { return buf.Pix[i*in.W+x] },
				func(i int, v int32) { scratch[i] = v }, h, stride)
			for i := 0; i < h; i++ {
				buf.Pix[i*in.W+x] = scratch[i]
			}
		})
	}
	return buf, nil
}

// Inverse exactly inverts the precise (stride 1) multi-level transform.
// Applied to a perforated coefficient plane it produces the approximate
// reconstruction whose accuracy the evaluation measures.
func Inverse(coef *pix.Image, cfg Config) (*pix.Image, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(coef); err != nil {
		return nil, err
	}
	buf := coef.Clone()
	regions := regionSizes(coef.W, coef.H, levels)
	for l := len(regions) - 1; l >= 0; l-- {
		w, h := regions[l][0], regions[l][1]
		// Columns first (inverting the forward order rows-then-columns).
		par.Index(w, cfg.Workers, func(x int) {
			scratch := make([]int32, h)
			invLift1D(func(i int) int32 { return buf.Pix[i*coef.W+x] },
				func(i int, v int32) { scratch[i] = v }, h)
			for i := 0; i < h; i++ {
				buf.Pix[i*coef.W+x] = scratch[i]
			}
		})
		// Rows.
		par.Index(h, cfg.Workers, func(y int) {
			row := buf.Pix[y*coef.W : y*coef.W+w]
			scratch := make([]int32, w)
			invLift1D(func(i int) int32 { return row[i] },
				func(i int, v int32) { scratch[i] = v }, w)
			copy(row, scratch)
		})
	}
	return buf, nil
}

// Precise computes the baseline: the precise forward transform followed by
// the precise inverse. For the reversible 5/3 scheme the result equals the
// input bit-exactly; it is computed (not short-circuited) because its
// runtime is the normalization baseline.
func Precise(in *pix.Image, cfg Config) (*pix.Image, error) {
	coef, err := Forward(in, cfg, 1)
	if err != nil {
		return nil, err
	}
	return Inverse(coef, cfg)
}

// Run is a constructed dwt53 anytime automaton with its buffers.
type Run struct {
	Automaton *core.Automaton
	// Coef holds the forward stage's coefficient snapshots.
	Coef *core.Buffer[*pix.Image]
	// Out holds the inverse-transformed (viewable) snapshots.
	Out *core.Buffer[*pix.Image]
}

// New builds the dwt53 automaton: an iterative forward stage that
// re-executes the perforated transform at each stride of the schedule, and
// a non-anytime inverse stage consuming coefficient snapshots
// asynchronously.
func New(in *pix.Image, cfg Config) (*Run, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	coefBuf := core.NewBuffer[*pix.Image]("dwt53-coef", nil)
	out := core.NewBuffer[*pix.Image]("dwt53", nil)
	a := core.New()

	passes := make([]func() (*pix.Image, error), len(strides))
	for i, stride := range strides {
		passes[i] = func() (*pix.Image, error) {
			return Forward(in, cfg, stride)
		}
	}
	if err := a.AddStage("forward", func(c *core.Context) error {
		return core.Iterative(c, coefBuf, passes)
	}); err != nil {
		return nil, err
	}
	if err := a.AddStage("inverse", func(c *core.Context) error {
		return core.AsyncConsume(c, coefBuf, func(s core.Snapshot[*pix.Image]) error {
			img, err := Inverse(s.Value, cfg)
			if err != nil {
				return err
			}
			_, err = out.Publish(img, s.Final)
			return err
		})
	}); err != nil {
		return nil, err
	}
	// Warm-pool support: rewind both buffers.
	a.OnReset(func() {
		coefBuf.Reset()
		out.Reset()
	})
	return &Run{Automaton: a, Coef: coefBuf, Out: out}, nil
}
