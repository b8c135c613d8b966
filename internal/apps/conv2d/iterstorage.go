package conv2d

import (
	"fmt"

	"anytime/internal/core"
	"anytime/internal/pix"
	"anytime/internal/store"
)

// This file implements the paper's *iterative* use of approximate storage
// (§III-B1, "Approximate Storage"): the whole convolution is re-executed at
// a ladder of storage accuracy levels f_1 … f_n, where each f_i reads its
// input through a device at a progressively higher supply voltage (lower
// upset probability) and the final pass runs at nominal (precise) voltage.
//
// Because approximate storage is data-destructive — a corrupted bit stays
// corrupted even after raising the voltage — the device must be flushed
// (reinitialized with precise values) between intermediate computations,
// exactly as the paper prescribes. The ladder therefore trades repeated
// passes (the redundant work inherent to iterative stages) for storage
// energy savings during the early, low-voltage passes.

// IterStorageConfig parameterizes the iterative approximate-storage
// automaton.
type IterStorageConfig struct {
	// Levels is the accuracy ladder, ordered least to most accurate; the
	// final level must be precise (zero upset probability). Default
	// store.DefaultLevels.
	Levels []store.VoltageLevel
	// Seed makes the fault sequences reproducible.
	Seed uint64
	// OnPass, if non-nil, runs after each pass with the level used and the
	// published image.
	OnPass func(level store.VoltageLevel, img *pix.Image)
}

func (cfg IterStorageConfig) withDefaults() IterStorageConfig {
	if cfg.Levels == nil {
		cfg.Levels = store.DefaultLevels
	}
	return cfg
}

func (cfg IterStorageConfig) validate(in *pix.Image) error {
	if in.C != 1 {
		return fmt.Errorf("conv2d: input must be grayscale, got %d channels", in.C)
	}
	if len(cfg.Levels) == 0 {
		return fmt.Errorf("conv2d: empty voltage ladder")
	}
	for i, l := range cfg.Levels {
		if l.UpsetProb < 0 || l.UpsetProb > 1 {
			return fmt.Errorf("conv2d: level %d upset probability %v out of range", i, l.UpsetProb)
		}
		if i > 0 && l.UpsetProb > cfg.Levels[i-1].UpsetProb {
			return fmt.Errorf("conv2d: ladder accuracy must not decrease (level %d)", i)
		}
	}
	if last := cfg.Levels[len(cfg.Levels)-1]; last.UpsetProb != 0 {
		return fmt.Errorf("conv2d: final ladder level %q must be precise (paper Property 1)", last.Name)
	}
	return nil
}

// NewIterativeStorage builds a 2dconv automaton whose single iterative
// stage re-executes the full convolution once per voltage level, flushing
// the approximate input storage between passes and publishing each pass's
// output. The final (nominal) pass is bit-exact with Precise.
func NewIterativeStorage(in *pix.Image, cfg IterStorageConfig) (*Run, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	arr, err := store.NewArray(in.Pix, 8, cfg.Levels[0].UpsetProb, cfg.Seed)
	if err != nil {
		return nil, err
	}
	half := kernelSize / 2
	weights, wsum := boxWeights()
	out := core.NewBuffer[*pix.Image]("conv2d-iterstorage", nil)

	passes := make([]func() (*pix.Image, error), len(cfg.Levels))
	for i, level := range cfg.Levels {
		passes[i] = func() (*pix.Image, error) {
			// Flush: reinitialize the device with precise values so the
			// previous pass's (data-destructive) corruption does not
			// degrade this higher-accuracy pass.
			if err := arr.Flush(in.Pix); err != nil {
				return nil, err
			}
			if err := arr.SetProb(level.UpsetProb); err != nil {
				return nil, err
			}
			r := &reader{img: in, arr: arr}
			img, err := pix.NewGray(in.W, in.H)
			if err != nil {
				return nil, err
			}
			for y := 0; y < in.H; y++ {
				for x := 0; x < in.W; x++ {
					img.SetGray(x, y, convolvePixel(r, weights, wsum, in.W, in.H, half, x, y))
				}
			}
			if cfg.OnPass != nil {
				cfg.OnPass(level, img)
			}
			return img, nil
		}
	}

	a := core.New()
	if err := a.AddStage("convolve-ladder", func(c *core.Context) error {
		return core.Iterative(c, out, passes)
	}); err != nil {
		return nil, err
	}
	return &Run{Automaton: a, Out: out}, nil
}

// LadderEnergy estimates the relative storage read energy of a full ladder
// run versus performing every pass at nominal voltage: each pass reads the
// same number of words, but a pass at level l spends only (1 - PowerSave)
// of nominal storage power. This is the quantity the paper's energy
// argument rests on (EnerJ's ≈90% supply power saving at 0.001% upsets).
func LadderEnergy(levels []store.VoltageLevel) float64 {
	if len(levels) == 0 {
		return 0
	}
	var total float64
	for _, l := range levels {
		total += 1 - l.PowerSave
	}
	return total / float64(len(levels))
}
