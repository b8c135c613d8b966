// Command anytime runs one of the paper's benchmark applications as an
// anytime automaton — the "hold the enter key for more precision"
// experience of the paper's introduction, on the command line.
//
// Usage:
//
//	anytime -app conv2d|histeq|dwt53|debayer|kmeans
//	        [-size N] [-workers N] [-seed N]
//	        [-halt FRACTION] [-in image.pgm] [-out image.pgm]
//	        [-publish every|demand]
//	        [-telemetry] [-curve curve.json] [-reqtrace]
//
// The tool measures the precise baseline, starts the automaton, halts it at
// the requested fraction of the baseline runtime (1.0 or more lets it run
// to the precise output), reports the SNR of the halted output, and
// optionally writes it as a PGM/PPM file. With -in, a user-supplied binary
// PGM image replaces the synthetic input (conv2d, histeq, dwt53; debayer
// treats it as a Bayer mosaic).
//
// -publish selects the diffusive image stages' round publish policy
// (core.PublishPolicy); every version is a fresh immutable image. -telemetry
// attaches the runtime metrics registry (the same instruments anytimed
// exposes at /metrics) and dumps a summary table on exit. -curve records
// the run's accuracy-versus-time samples, writes them as JSON, and prints
// the ASCII runtime–accuracy plot the harness draws for the paper's §V
// figures. -reqtrace records the run as a request trace, wired as anytimed
// wires one (a Slot-bound publish observer, the run's lifecycle recorded by
// internal/serve), and prints the span tree (run lifecycle, every publish,
// delivery) with the publish timeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"anytime/internal/apps"
	"anytime/internal/core"
	"anytime/internal/harness"
	"anytime/internal/metrics"
	"anytime/internal/pix"
	"anytime/internal/reqtrace"
	"anytime/internal/serve"
	"anytime/internal/telemetry"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "anytime:", err)
		os.Exit(1)
	}
}

// opts is the tool's parsed command line.
type opts struct {
	app       string
	size      int
	workers   int
	seed      uint64
	halt      float64
	accept    float64
	in        string
	out       string
	diff      string
	telemetry bool
	reqtrace  bool
	curve     string
	publish   string
}

func parseFlags(args []string) (opts, error) {
	var o opts
	fs := flag.NewFlagSet("anytime", flag.ContinueOnError)
	fs.StringVar(&o.app, "app", "conv2d", "application: conv2d, histeq, dwt53, debayer, kmeans")
	fs.IntVar(&o.size, "size", 512, "synthetic input side length")
	fs.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "workers per parallel stage")
	fs.Uint64Var(&o.seed, "seed", 1, "synthetic input seed")
	fs.Float64Var(&o.halt, "halt", 1.0, "halt after this fraction of the baseline runtime (>=1 runs to precise)")
	fs.Float64Var(&o.accept, "accept", 0, "stop automatically once output SNR reaches this many dB (0 disables)")
	fs.BoolVar(&o.telemetry, "telemetry", false, "attach the metrics registry and dump a summary table on exit")
	fs.BoolVar(&o.reqtrace, "reqtrace", false, "record the run as a request trace and print its span tree afterwards")
	fs.StringVar(&o.curve, "curve", "", "record the accuracy-vs-time curve, write it as JSON here, and print its plot")
	fs.StringVar(&o.in, "in", "", "input PGM/PPM file (optional; synthetic input otherwise)")
	fs.StringVar(&o.out, "out", "", "write the halted output image here (optional)")
	fs.StringVar(&o.diff, "diff", "", "write an error heat image (|precise - output| x8) here (optional)")
	fs.StringVar(&o.publish, "publish", "every", "round publish policy: every, demand")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, nil
}

// publishPolicy maps the -publish flag to core's policy.
func publishPolicy(name string) (core.PublishPolicy, error) {
	switch name {
	case "", "every":
		return core.PublishEveryRound, nil
	case "demand":
		return core.PublishOnDemand, nil
	default:
		return 0, fmt.Errorf("unknown publish policy %q (want every, demand)", name)
	}
}

// appRun bundles what the driver needs from each application.
type appRun struct {
	baseline func() error            // one precise execution (timed)
	ref      *pix.Image              // precise output for SNR
	entry    serve.Entry[*pix.Image] // constructed automaton and its output buffer
}

func run(o opts) error {
	ar, err := build(o)
	if err != nil {
		return err
	}
	var reg *telemetry.Registry
	if o.telemetry {
		reg = telemetry.NewRegistry()
		ar.entry.Automaton.SetHooks(telemetry.PipelineHooks(reg))
		telemetry.ObserveBuffer(reg, ar.entry.Out)
	}
	// The request trace attaches the way anytimed's pooled automata do: a
	// Slot carries it and the publish observer reports through the Slot;
	// serve records the run's lifecycle from the trace in the context.
	if o.reqtrace {
		slot := &reqtrace.Slot{}
		out := ar.entry.Out
		out.OnPublish(func(s core.Snapshot[*pix.Image]) {
			slot.Publish(out.Name(), uint64(s.Version), len(s.Value.Pix), s.Final)
		})
		ar.entry.Slot = slot
	}
	var rec *harness.Collector
	if o.curve != "" {
		rec = harness.NewCollector(ar.ref, 0)
		ar.entry.Out.OnPublish(rec.Observe)
	}
	baseline, err := harness.TimeBaseline(ar.baseline, 3)
	if err != nil {
		return err
	}
	fmt.Printf("baseline precise runtime: %v\n", baseline)
	if rec != nil {
		rec.Begin()
	}
	// The trace starts here, not at attach time, so its offsets measure the
	// anytime run alone — not the baseline timing runs above.
	ctx := context.Background()
	var rtr *reqtrace.Trace
	if ar.entry.Slot != nil {
		ctx, rtr = reqtrace.New(ctx, o.app)
		ar.entry.Slot.Bind(rtr)
	}

	// The three stopping rules of §III-A — accuracy bar, time budget, run to
	// precise — are the serving runtime's; the CLI only picks one.
	var res serve.Result[*pix.Image]
	switch {
	case o.accept > 0:
		res, err = serve.RunUntil(ctx, ar.entry, func(s core.Snapshot[*pix.Image]) bool {
			db, err := metrics.SNR(ar.ref.Pix, s.Value.Pix)
			return err == nil && db >= o.accept
		}, nil)
	case o.halt >= 1:
		res, err = serve.Run(ctx, ar.entry, 0, nil)
	default:
		// A zero deadline means "no deadline" to serve.Run; -halt 0 means the
		// earliest output.
		res, err = serve.Run(ctx, ar.entry, max(1, time.Duration(o.halt*float64(baseline))), nil)
	}
	if err != nil {
		return err
	}
	snap, elapsed := res.Snapshot, res.Elapsed

	db, err := metrics.SNR(ar.ref.Pix, snap.Value.Pix)
	if err != nil {
		return err
	}
	fmt.Printf("halted after %v (%.2fx baseline): version %d, final=%v, SNR %s dB\n",
		elapsed, float64(elapsed)/float64(baseline), snap.Version, snap.Final, metrics.FormatDB(db))
	if o.out != "" {
		if err := pix.WritePNMFile(o.out, snap.Value); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.out)
	}
	if o.diff != "" {
		heat, err := pix.DiffImage(ar.ref, snap.Value, 8)
		if err != nil {
			return err
		}
		if err := pix.WritePNMFile(o.diff, heat); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.diff)
	}
	if rtr != nil {
		snr := db
		if math.IsInf(snr, 0) || math.IsNaN(snr) {
			snr = 0 // precise output: no finite SNR to record
		}
		rtr.Deliver(uint64(snap.Version), snap.Final, res.Interrupted, snr, elapsed)
		ar.entry.Slot.Unbind()
		rtr.Finish(0)
		fmt.Println("request trace:")
		if err := rtr.WriteDetail(os.Stdout, 72); err != nil {
			return err
		}
	}
	if rec != nil {
		f, err := os.Create(o.curve)
		if err != nil {
			return err
		}
		if err := rec.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.curve)
		// The recorder feeds the same Profile type the harness plots the
		// paper's §V figures from — one code path for live and offline.
		profile, err := rec.Finish(o.app, baseline)
		if err != nil {
			return err
		}
		if err := profile.Plot(os.Stdout, 72, 12); err != nil {
			return err
		}
	}
	if reg != nil {
		fmt.Println("telemetry summary:")
		if err := reg.WriteSummary(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func build(o opts) (*appRun, error) {
	policy, err := publishPolicy(o.publish)
	if err != nil {
		return nil, err
	}
	app, ok := apps.Named(o.app)
	if !ok {
		return nil, fmt.Errorf("unknown app %q", o.app)
	}
	ao := apps.Options{Workers: o.workers, Publish: policy}
	var in *pix.Image
	if o.in != "" {
		if in, err = pix.ReadPNMFile(o.in); err == nil && in.C != app.Input.Channels() {
			err = fmt.Errorf("%s needs a %d-channel input, %s has %d", o.app, app.Input.Channels(), o.in, in.C)
		}
	} else {
		in, err = app.Input.Synthetic(o.size, o.seed)
	}
	if err != nil {
		return nil, err
	}
	ref, err := app.Precise(in, ao)
	if err != nil {
		return nil, err
	}
	a, out, err := app.New(in, ao)
	if err != nil {
		return nil, err
	}
	return &appRun{
		baseline: func() error { _, err := app.Precise(in, ao); return err },
		ref:      ref,
		entry:    serve.Entry[*pix.Image]{Automaton: a, Out: out},
	}, nil
}
