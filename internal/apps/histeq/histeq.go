// Package histeq implements the histogram-equalization benchmark of the
// paper's evaluation (§IV-A2): enhancing the contrast of an image using a
// histogram of image intensities. Its anytime automaton has four
// computation stages in an asynchronous pipeline, exactly as the paper
// describes:
//
//  1. hist — diffusive; builds a histogram of pixel values using anytime
//     input sampling (paper Figure 3). Its rounds are the lattice cosets
//     of the 2D tree order: each is a stratified sample of the image, read
//     as strided rows in memory order, where the paper's LFSR order gathers
//     pixels at random (the locality loss of §IV-C3).
//  2. cdf — not anytime; builds the cumulative distribution function from
//     the latest histogram snapshot.
//  3. lut — not anytime; normalizes the CDF into the equalization lookup
//     table.
//  4. apply — diffusive; generates the high-contrast image using
//     tree-based output sampling.
//
// The two non-anytime middle stages are why histeq reaches its precise
// output well after 1x the baseline runtime (the paper reports 6x): every
// fresh histogram snapshot can trigger a fresh application pass. Only the
// first pass of a run paints every pixel. After it the image is complete,
// and a pixel changes only if its bin's table entry did, so each later LUT
// repaints just the pixels of the bins whose entry changed: the child
// consumes updates, not whole new states (§III-C2).
package histeq

import (
	"fmt"
	"math"
	"sort"

	"anytime/internal/core"
	"anytime/internal/par"
	"anytime/internal/perm"
	"anytime/internal/pix"
	"anytime/internal/sampling"
)

// Bins is the number of intensity bins (8-bit images).
const Bins = 256

// histSnapshots is how many histogram versions the first stage publishes,
// counted over the image's power-of-two superset. A round's size rounds
// down to a lattice size, a power of two, so the number of versions rounds
// up to a power of two.
const histSnapshots = 8

// Config parameterizes the baseline and the automaton.
type Config struct {
	// Workers is the number of sampling workers per diffusive stage.
	// Default 1.
	Workers int
	// ApplyGranularity is the number of output pixels written per
	// published snapshot of the apply stage. Default pixels/4.
	ApplyGranularity int
	// Publish selects when the diffusive stages build and publish round
	// snapshots. Default core.PublishEveryRound.
	Publish core.PublishPolicy
}

func (cfg Config) withDefaults(pixels int) Config {
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.ApplyGranularity == 0 {
		// The per-pixel work of the apply stage is a single table lookup,
		// so snapshot publication (an O(pixels) copy) must stay coarse
		// or it dominates the profile.
		cfg.ApplyGranularity = pixels / 4
		if cfg.ApplyGranularity < 1 {
			cfg.ApplyGranularity = 1
		}
	}
	return cfg
}

func (cfg Config) validate(in *pix.Image) error {
	if in.C != 1 {
		return fmt.Errorf("histeq: input must be grayscale, got %d channels", in.C)
	}
	if cfg.Workers < 1 {
		return fmt.Errorf("histeq: workers %d must be positive", cfg.Workers)
	}
	if cfg.ApplyGranularity < 1 {
		return fmt.Errorf("histeq: ApplyGranularity %d must be positive", cfg.ApplyGranularity)
	}
	return nil
}

// Hist is the output of the first stage: bin counts over the pixels
// sampled so far.
type Hist struct {
	Counts    [Bins]int64
	Processed int // pixels sampled
}

// CDF is the output of the second stage: the cumulative distribution of
// the histogram it consumed.
type CDF struct {
	Cum     [Bins]int64
	Samples int64 // total samples in the histogram
}

// LUT is the output of the third stage: the intensity remapping table.
type LUT struct {
	Map [Bins]int32
}

// count adds to h the pixels of in that lat's counter positions [lo, hi)
// visit: a band of one round's lattice rows, each read in memory order.
func (h *Hist) count(in *pix.Image, lat *perm.Rounds, lo, hi int) {
	x0, y0, rows := lat.Band(lo, hi)
	px, w, sx, sy := in.Pix, in.W, lat.SX, lat.SY
	counts := &h.Counts
	for y := y0; y < y0+rows*sy; y += sy {
		for d := y*w + x0; d < (y+1)*w; d += sx {
			counts[binOf(px[d])]++
		}
	}
	h.Processed += rows * ((w - x0 + sx - 1) / sx)
}

// buildCDF computes the cumulative distribution of h.
func buildCDF(h *Hist) *CDF {
	var c CDF
	var run int64
	for v := 0; v < Bins; v++ {
		run += h.Counts[v]
		c.Cum[v] = run
	}
	c.Samples = run
	return &c
}

// buildLUT normalizes a CDF into the standard equalization table
// lut[v] = round((cdf[v]-cdfMin) * 255 / (n-cdfMin)). For degenerate
// inputs (constant images) it falls back to the identity map.
func buildLUT(c *CDF) *LUT {
	var l LUT
	var cdfMin int64
	for v := 0; v < Bins; v++ {
		if c.Cum[v] > 0 {
			cdfMin = c.Cum[v]
			break
		}
	}
	den := c.Samples - cdfMin
	if den <= 0 {
		for v := range l.Map {
			l.Map[v] = int32(v)
		}
		return &l
	}
	for v := 0; v < Bins; v++ {
		num := c.Cum[v] - cdfMin
		if num < 0 {
			num = 0
		}
		l.Map[v] = int32((num*255 + den/2) / den)
	}
	return &l
}

func binOf(v int32) int {
	if v < 0 {
		return 0
	}
	if v >= Bins {
		return Bins - 1
	}
	return int(v)
}

// Precise computes the baseline equalized image: exact histogram, CDF,
// LUT, and a parallel application pass.
func Precise(in *pix.Image, cfg Config) (*pix.Image, error) {
	cfg = cfg.withDefaults(in.Pixels())
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	var h Hist
	for _, v := range in.Pix {
		h.Counts[binOf(v)]++
	}
	h.Processed = in.Pixels()
	lut := buildLUT(buildCDF(&h))
	out, err := pix.NewGray(in.W, in.H)
	if err != nil {
		return nil, err
	}
	par.Rows(in.H, cfg.Workers, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < in.W; x++ {
				out.SetGray(x, y, lut.Map[binOf(in.Gray(x, y))])
			}
		}
	})
	return out, nil
}

// histRounds cuts the 2D tree order of a w×h image into the hist stage's
// rounds: histSnapshots rounds of the counter positions of its power-of-two
// superset, whose count it also returns.
func histRounds(w, h int) (perm.Rounds, int, error) {
	whole, err := perm.TreeRounds(h, w, math.MaxInt32) // one round: the superset
	if err != nil {
		return perm.Rounds{}, 0, err
	}
	total := whole.Len() * whole.Size
	lat, err := perm.TreeRounds(h, w, max(total/histSnapshots, 1))
	return lat, total, err
}

// Run is a constructed histeq anytime automaton with its output buffer and
// the intermediate buffers of the pipeline (exposed for tests and tools).
type Run struct {
	Automaton *core.Automaton
	HistBuf   *core.Buffer[*Hist]
	CDFBuf    *core.Buffer[*CDF]
	LUTBuf    *core.Buffer[*LUT]
	Out       *core.Buffer[*pix.Image]
}

// New builds the four-stage histeq automaton described in the package
// comment. A warm start seeds only the output image: the histogram, CDF and
// LUT stages recompute from scratch (they are cheap and input-global), and
// the apply stage's first pass overwrites every pixel, so the precise final
// is unchanged.
func New(in *pix.Image, cfg Config) (*Run, error) {
	cfg = cfg.withDefaults(in.Pixels())
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	lat, total, err := histRounds(in.W, in.H)
	if err != nil {
		return nil, err
	}

	histBuf := core.NewBuffer[*Hist]("hist", nil)
	cdfBuf := core.NewBuffer[*CDF]("cdf", nil)
	lutBuf := core.NewBuffer[*LUT]("lut", nil)
	a := core.New()

	// Stage 1: diffusive histogram over the lattice cosets of the tree
	// order, with thread-privatized partials merged at each snapshot. A
	// worker's span of counter positions is a band of one coset's lattice
	// rows, read in memory order. The per-element work is one increment,
	// so the batched diffusive runner keeps the sampling overhead
	// proportionate.
	partials := make([]*Hist, cfg.Workers)
	for w := range partials {
		partials[w] = &Hist{}
	}
	if err := a.AddStage("hist", func(c *core.Context) error {
		return core.DiffusiveBatch(c, histBuf, total,
			func(worker, lo, hi int) error {
				partials[worker].count(in, &lat, lo, hi)
				return nil
			},
			func(int) (*Hist, error) {
				merged := &Hist{}
				for _, p := range partials {
					for v := range merged.Counts {
						merged.Counts[v] += p.Counts[v]
					}
					merged.Processed += p.Processed
				}
				return merged, nil
			},
			core.RoundConfig{Granularity: lat.Size, Workers: cfg.Workers, Policy: cfg.Publish},
			true)
	}); err != nil {
		return nil, err
	}

	// Stage 2 (not anytime): CDF of whichever histogram is current.
	if err := a.AddStage("cdf", func(c *core.Context) error {
		return core.AsyncConsume(c, histBuf, func(s core.Snapshot[*Hist]) error {
			_, err := cdfBuf.Publish(buildCDF(s.Value), s.Final)
			return err
		})
	}); err != nil {
		return nil, err
	}

	// Stage 3 (not anytime): normalize the CDF into the lookup table.
	if err := a.AddStage("lut", func(c *core.Context) error {
		return core.AsyncConsume(c, cdfBuf, func(s core.Snapshot[*CDF]) error {
			_, err := lutBuf.Publish(buildLUT(s.Value), s.Final)
			return err
		})
	}); err != nil {
		return nil, err
	}

	// Stage 4: diffusive application with tree-based output sampling: a
	// full anytime pass on the run's first LUT, then a repaint of the
	// changed bins per later LUT, the final one marking the output final.
	t, err := sampling.NewTreeImage(a, "histeq", in.W, in.H, 1)
	if err != nil {
		return nil, err
	}
	p := newPainter(t, in, core.RoundConfig{Granularity: cfg.ApplyGranularity, Workers: cfg.Workers, Policy: cfg.Publish})
	if err := a.AddStage("apply", func(c *core.Context) error {
		var applied *LUT
		return core.AsyncConsume(c, lutBuf, func(s core.Snapshot[*LUT]) error {
			err := p.apply(c, applied, s.Value, s.Final)
			applied = s.Value
			return err
		})
	}); err != nil {
		return nil, err
	}
	// Warm-pool support. Beyond the output image (rewound by t), the per-run
	// state of this pipeline is the three intermediate buffers and —
	// crucially — the worker-private histogram partials, which live outside
	// the stage function: without zeroing them a reused automaton would
	// double-count every pixel and publish a wrong (though well-formed)
	// histogram.
	a.OnReset(func() {
		for _, p := range partials {
			*p = Hist{}
		}
		histBuf.Reset()
		cdfBuf.Reset()
		lutBuf.Reset()
	})
	return &Run{Automaton: a, HistBuf: histBuf, CDFBuf: cdfBuf, LUTBuf: lutBuf, Out: t.Out}, nil
}

// painter is the apply stage's kernel: it paints the LUT versions the stage
// consumes into the tree-sampled output.
type painter struct {
	t     *sampling.TreeImage
	src   []int32
	round core.RoundConfig
	// byBin holds every pixel index grouped by bin, in raster order within
	// a bin: bin b's bucket is byBin[start[b]:start[b+1]]. It depends on the
	// input only, so New builds it once and pooled runs reuse it.
	byBin []int32
	start [Bins + 1]int32
	// One repaint's updates are the buckets of bins, ascending, laid end to
	// end; bins[k]'s bucket ends at update ends[k].
	bins, ends []int
}

// newPainter buckets in's pixels by bin with a counting sort.
func newPainter(t *sampling.TreeImage, in *pix.Image, round core.RoundConfig) *painter {
	p := &painter{t: t, src: in.Pix, round: round, byBin: make([]int32, len(in.Pix))}
	for _, v := range in.Pix {
		p.start[binOf(v)+1]++
	}
	for b := range Bins {
		p.start[b+1] += p.start[b]
	}
	next := p.start
	for i, v := range in.Pix {
		b := binOf(v)
		p.byBin[next[b]] = int32(i)
		next[b]++
	}
	return p
}

// apply paints lut, the LUT consumed after last, and marks the output final
// if final. The run's first LUT (last == nil) is a full tree-sampled pass.
// A later one repaints only the buckets whose entry differs from last's, in
// rounds of the stage's granularity. An identical LUT publishes nothing,
// unless it is final: then one unchanged version marks the output final.
func (p *painter) apply(c *core.Context, last, lut *LUT, final bool) error {
	tab := &lut.Map
	if last == nil {
		return p.t.Pass(c, func(worker, x0, y0, sx, sy, rows int) error {
			// One lookup and one store per pixel: hoist the table, source,
			// and destination so the loop carries no pointer chases through
			// lut/working/in.
			src, dst, w := p.src, p.t.Working.Pix, p.t.Working.W
			for y := y0; y < y0+rows*sy; y += sy {
				for d := y*w + x0; d < (y+1)*w; d += sx {
					dst[d] = tab[binOf(src[d])]
				}
			}
			return nil
		}, p.round, final)
	}
	p.bins, p.ends = p.bins[:0], p.ends[:0]
	total := 0
	for b := range Bins {
		if n := int(p.start[b+1] - p.start[b]); n > 0 && tab[b] != last.Map[b] {
			total += n
			p.bins = append(p.bins, b)
			p.ends = append(p.ends, total)
		}
	}
	if total == 0 && !final {
		return nil
	}
	return p.t.Repaint(c, total, func(worker, lo, hi int) error {
		dst := p.t.Working.Pix
		for k, pos := sort.SearchInts(p.ends, lo+1), lo; pos < hi; k++ {
			b, end := p.bins[k], p.ends[k]
			to := min(hi, end)
			// Update u of bin b's stretch is byBin[off+u].
			off := int(p.start[b+1]) - end
			v := tab[b]
			for _, d := range p.byBin[off+pos : off+to] {
				dst[d] = v
			}
			pos = to
		}
		return nil
	}, p.round, final)
}
