package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"anytime/internal/apps"
	"anytime/internal/apps/conv2d"
	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
	"anytime/internal/serve"
)

// Options configures the figure experiments.
type Options struct {
	// Size is the image side length. Default 256 (the recorded
	// EXPERIMENTS.md run uses 512, matching the paper's "large image
	// input sets" at laptop scale).
	Size int
	// Workers is the worker count per parallel stage. Default
	// runtime.GOMAXPROCS(0), like cmd/anytime.
	Workers int
	// Seed drives the synthetic inputs. Default 1.
	Seed uint64
	// BaselineReps is how many baseline timings to take (fastest wins).
	// Default 3.
	BaselineReps int
}

func (o Options) withDefaults() Options {
	if o.Size == 0 {
		o.Size = 256
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.BaselineReps == 0 {
		o.BaselineReps = 3
	}
	return o
}

// subject is what every per-app figure starts from: the app's paper label,
// the precise reference, the timed precise baseline, and a fresh automaton
// over the synthetic input.
type subject struct {
	label    string
	ref      *pix.Image
	baseline time.Duration
	a        *core.Automaton
	out      *core.Buffer[*pix.Image]
}

func prepare(name string, opt Options) (subject, error) {
	opt = opt.withDefaults()
	app, ok := apps.Named(name)
	if !ok {
		return subject{}, fmt.Errorf("harness: unknown app %q", name)
	}
	s := subject{label: app.Label}
	ao := apps.Options{Workers: opt.Workers}
	in, err := app.Input.Synthetic(opt.Size, opt.Seed)
	if err != nil {
		return subject{}, err
	}
	if s.ref, err = app.Precise(in, ao); err != nil {
		return subject{}, err
	}
	s.baseline, err = TimeBaseline(func() error {
		_, err := app.Precise(in, ao)
		return err
	}, opt.BaselineReps)
	if err != nil {
		return subject{}, err
	}
	s.a, s.out, err = app.New(in, ao)
	return s, err
}

// run executes a under internal/serve's deadline contract — the one place
// the stopping rule is written: d = 0 runs to the precise output, d > 0
// delivers the newest version published within d (waiting for the first
// rather than returning empty-handed).
func run(a *core.Automaton, out *core.Buffer[*pix.Image], d time.Duration) (serve.Result[*pix.Image], error) {
	return serve.Run(context.Background(), serve.Entry[*pix.Image]{Automaton: a, Out: out}, d, nil)
}

// profile measures the runtime–accuracy profile of one app's automaton
// (paper Figures 11–15) by observing every publish of a single run.
func profile(name string, opt Options) (Profile, error) {
	s, err := prepare(name, opt)
	if err != nil {
		return Profile{}, err
	}
	col := NewCollector(s.ref, 0)
	s.out.OnPublish(col.Observe)
	col.Begin()
	if _, err := run(s.a, s.out, 0); err != nil {
		return Profile{}, err
	}
	return col.Finish(s.label, s.baseline)
}

// Fig11Conv2D … Fig15Kmeans are the paper's Figures 11–15, one app each.
func Fig11Conv2D(opt Options) (Profile, error)  { return profile("conv2d", opt) }
func Fig12Histeq(opt Options) (Profile, error)  { return profile("histeq", opt) }
func Fig13DWT53(opt Options) (Profile, error)   { return profile("dwt53", opt) }
func Fig14Debayer(opt Options) (Profile, error) { return profile("debayer", opt) }
func Fig15Kmeans(opt Options) (Profile, error)  { return profile("kmeans", opt) }

// SnapshotResult is the output of a halt-and-evaluate run (Figures 16–18):
// the image the user would see stopping the automaton at the target
// fraction of the baseline runtime.
type SnapshotResult struct {
	App      string
	Target   float64 // halt point as a fraction of baseline runtime
	SNR      float64 // accuracy of the halted output
	Final    bool    // whether the automaton had already finished
	Image    *pix.Image
	Baseline time.Duration
}

// Write prints the result in the paper's caption style.
func (r SnapshotResult) Write(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s @ %.0f%% runtime: SNR %s dB (baseline %v, final=%v)\n",
		r.App, r.Target*100, metrics.FormatDB(r.SNR), r.Baseline, r.Final)
	return err
}

// haltAt halts one app's automaton at frac of its baseline runtime and
// scores what it held (paper Figures 16–18).
func haltAt(name string, frac float64, opt Options) (SnapshotResult, error) {
	s, err := prepare(name, opt)
	if err != nil {
		return SnapshotResult{}, err
	}
	res, err := run(s.a, s.out, time.Duration(frac*float64(s.baseline)))
	if err != nil {
		return SnapshotResult{}, err
	}
	snap := res.Snapshot
	db, err := metrics.SNR(s.ref.Pix, snap.Value.Pix)
	if err != nil {
		return SnapshotResult{}, err
	}
	return SnapshotResult{
		App:      s.label,
		Target:   frac,
		SNR:      db,
		Final:    snap.Final,
		Image:    snap.Value,
		Baseline: s.baseline,
	}, nil
}

// Fig16Conv2DSnapshot … Fig18KmeansSnapshot are the paper's Figures 16–18,
// at the paper's halt points: 2dconv at 21% (paper: 15.8 dB), dwt53 at 78%
// (16.8 dB), kmeans at 63% (16.7 dB).
func Fig16Conv2DSnapshot(opt Options) (SnapshotResult, error) { return haltAt("conv2d", 0.21, opt) }
func Fig17DWT53Snapshot(opt Options) (SnapshotResult, error)  { return haltAt("dwt53", 0.78, opt) }
func Fig18KmeansSnapshot(opt Options) (SnapshotResult, error) { return haltAt("kmeans", 0.63, opt) }

// Sweep is one labelled sample-size/accuracy series of Figures 19–20.
type Sweep struct {
	Label  string
	Points []Point // Fraction carries the sample size axis
}

// WriteCSV emits "label,fraction,snr_db" rows for a set of sweeps.
func WriteSweepsCSV(w io.Writer, sweeps []Sweep) error {
	if _, err := fmt.Fprintln(w, "label,fraction,snr_db"); err != nil {
		return err
	}
	for _, s := range sweeps {
		for _, pt := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%.4f,%s\n", s.Label, pt.Fraction, metrics.FormatDB(pt.SNR)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fig19Precision sweeps sample size versus accuracy for 2dconv at 8-, 6-,
// 4- and 2-bit pixel precision (paper Figure 19; the paper reports 37.9 dB
// at 6 bits and 24.2 dB at 4 bits for the full sample).
func Fig19Precision(opt Options) ([]Sweep, error) {
	opt = opt.withDefaults()
	in, err := pix.SyntheticGray(opt.Size, opt.Size, opt.Seed)
	if err != nil {
		return nil, err
	}
	ref, err := conv2d.Precise(in, conv2d.Config{Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	var sweeps []Sweep
	for _, bits := range []uint{8, 6, 4, 2} {
		s, err := conv2dSweep(in, ref, fmt.Sprintf("%d bits", bits), conv2d.Config{
			Workers:   opt.Workers,
			PixelBits: bits,
		})
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, s)
	}
	return sweeps, nil
}

// Fig20Storage sweeps sample size versus accuracy for 2dconv with SRAM
// read-upset probabilities 0, 1e-7 and 1e-5 (paper Figure 20's 0%,
// 0.00001% and 0.001%).
func Fig20Storage(opt Options) ([]Sweep, error) {
	opt = opt.withDefaults()
	in, err := pix.SyntheticGray(opt.Size, opt.Size, opt.Seed)
	if err != nil {
		return nil, err
	}
	ref, err := conv2d.Precise(in, conv2d.Config{Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	var sweeps []Sweep
	probs := []struct {
		p     float64
		label string
	}{
		{0, "0%"},
		{1e-7, "0.00001%"},
		{1e-5, "0.001%"},
	}
	for _, pr := range probs {
		cfg := conv2d.Config{
			Workers: opt.Workers,
			Storage: &conv2d.StorageConfig{Prob: pr.p, Seed: opt.Seed},
		}
		s, err := conv2dSweep(in, ref, pr.label, cfg)
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, s)
	}
	return sweeps, nil
}

func conv2dSweep(in, ref *pix.Image, label string, cfg conv2d.Config) (Sweep, error) {
	col := NewCollector(ref, in.Pixels())
	cfg.OnSnapshot = func(processed int, img *pix.Image) { col.Record(processed, img) }
	r, err := conv2d.New(in, cfg)
	if err != nil {
		return Sweep{}, err
	}
	col.Begin()
	if _, err := run(r.Automaton, r.Out, 0); err != nil {
		return Sweep{}, err
	}
	profile, err := col.Finish(label, time.Second)
	if err != nil {
		return Sweep{}, err
	}
	return Sweep{Label: label, Points: profile.Points}, nil
}
