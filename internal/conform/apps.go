package conform

import (
	"errors"
	"fmt"
	"sync"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/debayer"
	"anytime/internal/apps/dwt53"
	"anytime/internal/apps/histeq"
	"anytime/internal/apps/kmeans"
	"anytime/internal/core"
	"anytime/internal/pix"
)

// Features declares which schedule dimensions an app supports, so
// deriveSchedule only samples meaningful ones.
type Features struct {
	Workers        bool // worker count is configurable
	Policies       bool // publish policies are configurable
	MaxGranularity int  // explore granularities 1..Max; 0 = fixed
	Edges          bool // has async/sync consumer edges (edge faults apply)
	Storage        bool // supports drowsy-storage upset injection
}

// App adapts one automaton application to the harness: it names the
// stages (for schedule derivation) and builds a fresh probed instance for
// a schedule.
type App interface {
	Name() string
	Features() Features
	Stages() []string
	Build(env *Env, s Schedule) (*Instance, error)
}

// Instance is one probed automaton, ready to start.
type Instance struct {
	Automaton *core.Automaton
	Probes    []*Probe
	// Sink is the probe of the application's output buffer; final-output
	// equivalence is checked against it.
	Sink *Probe
	// GoldenSum is the checksum of the sequential golden (precise) final
	// output; HasGolden is false when the schedule makes the final output
	// intentionally approximate (storage upsets).
	GoldenSum uint64
	HasGolden bool
}

// conformSize is the square input edge for the benchmark inputs — small
// enough that a full sweep of several hundred schedules stays in seconds.
const conformSize = 32

// inputs builds the shared synthetic inputs once per process.
var inputs struct {
	once   sync.Once
	gray   *pix.Image
	rgb    *pix.Image
	mosaic *pix.Image
	err    error
}

func sharedInputs() (gray, rgb, mosaic *pix.Image, err error) {
	inputs.once.Do(func() {
		inputs.gray, inputs.err = pix.SyntheticGray(conformSize, conformSize, 11)
		if inputs.err != nil {
			return
		}
		inputs.rgb, inputs.err = pix.SyntheticRGB(conformSize, conformSize, 11)
		if inputs.err != nil {
			return
		}
		inputs.mosaic, inputs.err = pix.BayerGRBG(inputs.rgb)
	})
	return inputs.gray, inputs.rgb, inputs.mosaic, inputs.err
}

// Apps returns the harness's application suite: the five benchmark apps of
// the paper's evaluation plus a synthetic synchronous pipeline exercising
// Stream edges (§III-C2).
func Apps() []App {
	return []App{
		&conv2dApp{},
		&debayerApp{},
		&histeqApp{},
		&kmeansApp{},
		&dwt53App{},
		&syncPipeApp{},
	}
}

// --- checksums and validators -------------------------------------------

func sumImage(im *pix.Image) uint64 {
	h := uint64(fnv1aInit)
	if im == nil {
		return h
	}
	h = fnv1aStep(h, uint64(im.W))
	h = fnv1aStep(h, uint64(im.H))
	h = fnv1aStep(h, uint64(im.C))
	for _, v := range im.Pix {
		h = fnv1aStep(h, uint64(uint32(v)))
	}
	return h
}

// validImage rejects snapshots that a consumer could not decode: wrong
// shape, wrong backing length, or values outside [lo, hi].
func validImage(w, h, c int, lo, hi int32) func(*pix.Image) error {
	return func(im *pix.Image) error {
		if im == nil {
			return errors.New("nil image")
		}
		if im.W != w || im.H != h || im.C != c {
			return fmt.Errorf("shape %dx%dx%d, want %dx%dx%d", im.W, im.H, im.C, w, h, c)
		}
		if len(im.Pix) != w*h*c {
			return fmt.Errorf("backing length %d, want %d", len(im.Pix), w*h*c)
		}
		for i, v := range im.Pix {
			if v < lo || v > hi {
				return fmt.Errorf("pix[%d] = %d outside [%d, %d]", i, v, lo, hi)
			}
		}
		return nil
	}
}

// --- conv2d --------------------------------------------------------------

type conv2dApp struct{}

func (*conv2dApp) Name() string { return "conv2d" }

func (*conv2dApp) Features() Features {
	return Features{Workers: true, Policies: true, MaxGranularity: 256, Storage: true}
}

func (*conv2dApp) Stages() []string { return []string{"convolve"} }

func (a *conv2dApp) Build(env *Env, s Schedule) (*Instance, error) {
	inst, _, err := a.build(env, s)
	return inst, err
}

// build is Build that also returns the output buffer, for tests that
// attach observers of their own.
func (*conv2dApp) build(env *Env, s Schedule) (*Instance, *core.Buffer[*pix.Image], error) {
	in, _, _, err := sharedInputs()
	if err != nil {
		return nil, nil, err
	}
	cfg := conv2d.Config{
		Workers:     s.Workers,
		Granularity: s.Granularity,
		Publish:     s.Policy,
	}
	if s.StorageUpset > 0 {
		cfg.Storage = &conv2d.StorageConfig{Prob: s.StorageUpset, Seed: s.Seed | 1}
	}
	run, err := conv2d.New(in, cfg)
	if err != nil {
		return nil, nil, err
	}
	sink := AttachProbe(env, run.Out, sumImage, validImage(in.W, in.H, 1, 0, 255))
	inst := &Instance{Automaton: run.Automaton, Probes: []*Probe{sink}, Sink: sink}
	if s.StorageUpset == 0 {
		golden, err := goldenSum("conv2d", func() (*pix.Image, error) { return conv2d.Precise(in, conv2d.Config{}) })
		if err != nil {
			return nil, nil, err
		}
		inst.GoldenSum, inst.HasGolden = golden, true
	}
	return inst, run.Out, nil
}

// --- debayer -------------------------------------------------------------

type debayerApp struct{}

func (*debayerApp) Name() string { return "debayer" }

func (*debayerApp) Features() Features {
	return Features{Workers: true, Policies: true, MaxGranularity: 256}
}

func (*debayerApp) Stages() []string { return []string{"interpolate"} }

func (a *debayerApp) Build(env *Env, s Schedule) (*Instance, error) {
	_, _, mosaic, err := sharedInputs()
	if err != nil {
		return nil, err
	}
	run, err := debayer.New(mosaic, debayer.Config{
		Workers:     s.Workers,
		Granularity: s.Granularity,
		Publish:     s.Policy,
	})
	if err != nil {
		return nil, err
	}
	sink := AttachProbe(env, run.Out, sumImage, validImage(mosaic.W, mosaic.H, 3, 0, 255))
	golden, err := goldenSum("debayer", func() (*pix.Image, error) { return debayer.Precise(mosaic, debayer.Config{}) })
	if err != nil {
		return nil, err
	}
	return &Instance{
		Automaton: run.Automaton,
		Probes:    []*Probe{sink},
		Sink:      sink,
		GoldenSum: golden,
		HasGolden: true,
	}, nil
}

// --- histeq --------------------------------------------------------------

type histeqApp struct{}

func (*histeqApp) Name() string { return "histeq" }

func (*histeqApp) Features() Features {
	return Features{Workers: true, Policies: true, MaxGranularity: 256, Edges: true}
}

func (*histeqApp) Stages() []string { return []string{"hist", "cdf", "lut", "apply"} }

func (a *histeqApp) Build(env *Env, s Schedule) (*Instance, error) {
	in, _, _, err := sharedInputs()
	if err != nil {
		return nil, err
	}
	run, err := histeq.New(in, histeq.Config{
		Workers:          s.Workers,
		ApplyGranularity: s.Granularity,
		Publish:          s.Policy,
	})
	if err != nil {
		return nil, err
	}
	pixels := in.Pixels()
	histProbe := AttachProbe(env, run.HistBuf, func(h *histeq.Hist) uint64 {
		sum := uint64(fnv1aInit)
		for _, c := range h.Counts {
			sum = fnv1aStep(sum, uint64(c))
		}
		return fnv1aStep(sum, uint64(h.Processed))
	}, func(h *histeq.Hist) error {
		if h == nil {
			return errors.New("nil histogram")
		}
		var total int64
		for v, c := range h.Counts {
			if c < 0 {
				return fmt.Errorf("negative count %d in bin %d", c, v)
			}
			total += c
		}
		if total != int64(h.Processed) {
			return fmt.Errorf("counts sum to %d but Processed = %d", total, h.Processed)
		}
		if h.Processed < 0 || h.Processed > pixels {
			return fmt.Errorf("processed %d outside [0, %d]", h.Processed, pixels)
		}
		return nil
	})
	cdfProbe := AttachProbe(env, run.CDFBuf, func(c *histeq.CDF) uint64 {
		sum := uint64(fnv1aInit)
		for _, v := range c.Cum {
			sum = fnv1aStep(sum, uint64(v))
		}
		return fnv1aStep(sum, uint64(c.Samples))
	}, func(c *histeq.CDF) error {
		if c == nil {
			return errors.New("nil CDF")
		}
		prev := int64(0)
		for v, cum := range c.Cum {
			if cum < prev {
				return fmt.Errorf("CDF decreases at bin %d: %d < %d", v, cum, prev)
			}
			prev = cum
		}
		if c.Cum[histeq.Bins-1] != c.Samples {
			return fmt.Errorf("CDF tail %d != samples %d", c.Cum[histeq.Bins-1], c.Samples)
		}
		return nil
	})
	lutProbe := AttachProbe(env, run.LUTBuf, func(l *histeq.LUT) uint64 {
		sum := uint64(fnv1aInit)
		for _, v := range l.Map {
			sum = fnv1aStep(sum, uint64(uint32(v)))
		}
		return sum
	}, func(l *histeq.LUT) error {
		if l == nil {
			return errors.New("nil LUT")
		}
		for v, m := range l.Map {
			if m < 0 || m > 255 {
				return fmt.Errorf("LUT[%d] = %d outside [0, 255]", v, m)
			}
		}
		return nil
	})
	sink := AttachProbe(env, run.Out, sumImage, validImage(in.W, in.H, 1, 0, 255))
	golden, err := goldenSum("histeq", func() (*pix.Image, error) { return histeq.Precise(in, histeq.Config{}) })
	if err != nil {
		return nil, err
	}
	return &Instance{
		Automaton: run.Automaton,
		Probes:    []*Probe{histProbe, cdfProbe, lutProbe, sink},
		Sink:      sink,
		GoldenSum: golden,
		HasGolden: true,
	}, nil
}

// --- kmeans --------------------------------------------------------------

type kmeansApp struct{}

func (*kmeansApp) Name() string { return "kmeans" }

func (*kmeansApp) Features() Features {
	return Features{Workers: true, Policies: true, MaxGranularity: 256, Edges: true}
}

func (*kmeansApp) Stages() []string { return []string{"cluster", "reduce"} }

func (a *kmeansApp) Build(env *Env, s Schedule) (*Instance, error) {
	_, rgb, _, err := sharedInputs()
	if err != nil {
		return nil, err
	}
	cfg := kmeans.Config{
		Workers:            s.Workers,
		ClusterGranularity: s.Granularity,
		Publish:            s.Policy,
	}
	run, err := kmeans.New(rgb, cfg)
	if err != nil {
		return nil, err
	}
	modelProbe := AttachProbe(env, run.ModelBuf, func(m *kmeans.Model) uint64 {
		sum := uint64(fnv1aInit)
		sum = fnv1aStep(sum, uint64(m.Iter))
		for _, c := range m.Centroids {
			for _, v := range c {
				sum = fnv1aStep(sum, uint64(uint32(v)))
			}
		}
		return sum
	}, func(m *kmeans.Model) error {
		if m == nil {
			return errors.New("nil model")
		}
		if len(m.Centroids) == 0 {
			return errors.New("no centroids")
		}
		for i, c := range m.Centroids {
			for ch, v := range c {
				if v < 0 || v > 255 {
					return fmt.Errorf("centroid %d channel %d = %d outside [0, 255]", i, ch, v)
				}
			}
		}
		return nil
	})
	sink := AttachProbe(env, run.Out, sumImage, validImage(rgb.W, rgb.H, 3, 0, 255))
	golden, err := goldenSum("kmeans", func() (*pix.Image, error) { return kmeans.Precise(rgb, kmeans.Config{}) })
	if err != nil {
		return nil, err
	}
	return &Instance{
		Automaton: run.Automaton,
		Probes:    []*Probe{modelProbe, sink},
		Sink:      sink,
		GoldenSum: golden,
		HasGolden: true,
	}, nil
}

// --- dwt53 ---------------------------------------------------------------

type dwt53App struct{}

func (*dwt53App) Name() string { return "dwt53" }

func (*dwt53App) Features() Features {
	return Features{Workers: true, Edges: true}
}

func (*dwt53App) Stages() []string { return []string{"forward", "inverse"} }

func (a *dwt53App) Build(env *Env, s Schedule) (*Instance, error) {
	in, _, _, err := sharedInputs()
	if err != nil {
		return nil, err
	}
	run, err := dwt53.New(in, dwt53.Config{Workers: s.Workers})
	if err != nil {
		return nil, err
	}
	// Wavelet coefficients are signed and perforated reconstructions may
	// over/undershoot the pixel range slightly, so the validators bound
	// shape and a generous value band rather than [0, 255].
	coefProbe := AttachProbe(env, run.Coef, sumImage, validImage(in.W, in.H, 1, -4096, 4096))
	sink := AttachProbe(env, run.Out, sumImage, validImage(in.W, in.H, 1, -4096, 4096))
	golden, err := goldenSum("dwt53", func() (*pix.Image, error) { return dwt53.Precise(in, dwt53.Config{}) })
	if err != nil {
		return nil, err
	}
	return &Instance{
		Automaton: run.Automaton,
		Probes:    []*Probe{coefProbe, sink},
		Sink:      sink,
		GoldenSum: golden,
		HasGolden: true,
	}, nil
}

// --- syncpipe ------------------------------------------------------------

// syncPipeApp is a synthetic two-stage synchronous pipeline (§III-C2): a
// diffusive producer squares 0..n-1, streaming every update X_i to a
// distributive consumer that folds a running sum of squares. It exists to
// put Stream edges (Send/Recv backpressure, EdgeRecv starvation faults)
// under the same conformance invariants as the benchmark apps. Both
// buffers publish one version per element, so a snapshot's expected value
// is an exact function of its version — the strongest decodability check
// in the suite.
type syncPipeApp struct{}

const syncPipeN = 64

func (*syncPipeApp) Name() string { return "syncpipe" }

func (*syncPipeApp) Features() Features { return Features{Edges: true} }

func (*syncPipeApp) Stages() []string { return []string{"square", "sum"} }

// sumOfSquares is the sequential golden: sum of i^2 for i in [0, n).
func sumOfSquares(n int) int64 {
	m := int64(n)
	return m * (m - 1) * (2*m - 1) / 6
}

func (a *syncPipeApp) Build(env *Env, s Schedule) (*Instance, error) {
	prodBuf := core.NewBuffer[int64]("syncpipe-squares", nil)
	sumBuf := core.NewBuffer[int64]("syncpipe-sum", nil)
	stream, err := core.NewStream[int64](2)
	if err != nil {
		return nil, err
	}
	auto := core.New()
	if err := auto.AddStage("square", func(c *core.Context) error {
		var running int64
		for i := 0; i < syncPipeN; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			sq := int64(i) * int64(i)
			running += sq
			if err := stream.Send(c, core.Update[int64]{Seq: i + 1, Data: sq, Last: i == syncPipeN-1}); err != nil {
				return err
			}
			if _, err := prodBuf.Publish(running, i == syncPipeN-1); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := auto.AddStage("sum", func(c *core.Context) error {
		var acc int64
		return core.SyncConsume(c, stream, func(u core.Update[int64]) error {
			acc += u.Data
			_, err := sumBuf.Publish(acc, u.Last)
			return err
		})
	}); err != nil {
		return nil, err
	}
	// What a production constructor registers with OnReset, the harness app
	// registers too: the reset-reuse sweep checks this automaton out again,
	// and an interrupted cycle may leave in-flight elements in the stream.
	auto.OnReset(func() {
		stream.Reset()
		prodBuf.Reset()
		sumBuf.Reset()
	})
	sumInt := func(v int64) uint64 { return fnv1aStep(fnv1aInit, uint64(v)) }
	// Both stages publish once per element, so version v of either buffer
	// must hold exactly the sum of the first v squares. The validator
	// counts publishes itself (it runs once per publish, in order), making
	// every intermediate snapshot checkable against a closed form. The
	// counter is per-run state, so a rewind is registered alongside it.
	exactSums := func(name string) func(int64) error {
		published := 0
		env.OnReset(func() { published = 0 })
		return func(v int64) error {
			published++
			if want := sumOfSquares(published); v != want {
				return fmt.Errorf("%s version %d holds %d, want %d", name, published, v, want)
			}
			return nil
		}
	}
	prodProbe := AttachProbe(env, prodBuf, sumInt, exactSums("squares"))
	sink := AttachProbe(env, sumBuf, sumInt, exactSums("sum"))
	return &Instance{
		Automaton: auto,
		Probes:    []*Probe{prodProbe, sink},
		Sink:      sink,
		GoldenSum: sumInt(sumOfSquares(syncPipeN)),
		HasGolden: true,
	}, nil
}

// --- golden cache --------------------------------------------------------

// goldenCache memoizes each app's sequential golden checksum; the suite
// re-derives instances hundreds of times per run and the golden never
// changes for the fixed shared inputs.
var goldenCache sync.Map // name -> uint64

func goldenSum(name string, precise func() (*pix.Image, error)) (uint64, error) {
	if v, ok := goldenCache.Load(name); ok {
		return v.(uint64), nil
	}
	img, err := precise()
	if err != nil {
		return 0, err
	}
	sum := sumImage(img)
	goldenCache.Store(name, sum)
	return sum, nil
}
