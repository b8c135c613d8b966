// Command figures regenerates the data behind every figure of the paper's
// evaluation section (Figures 10–20 of "The Anytime Automaton", ISCA 2016).
//
// Usage:
//
//	figures [-fig all|fig10|fig11|...|fig20] [-size N] [-workers N]
//	        [-seed N] [-reps N] [-outdir DIR]
//
// Profiles and sweeps are printed as CSV to stdout; Figure 10 prints an
// aligned table; Figures 16–18 print their halt-point summary and, when
// -outdir is given, write the halted output image next to the baseline
// image as PGM/PPM files.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"anytime/internal/harness"
	"anytime/internal/pix"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate (all, fig10..fig20)")
	size := flag.Int("size", 512, "image side length (matrix dimension for fig10)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "workers per parallel stage")
	seed := flag.Uint64("seed", 1, "synthetic input seed")
	reps := flag.Int("reps", 3, "baseline timing repetitions")
	outdir := flag.String("outdir", "", "directory for figure 16-18 output images (optional)")
	plot := flag.Bool("plot", false, "render runtime-accuracy profiles as ASCII plots too")
	flag.Parse()

	opt := harness.Options{Size: *size, Workers: *workers, Seed: *seed, BaselineReps: *reps}
	if err := run(*fig, opt, *outdir, *plot); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(fig string, opt harness.Options, outdir string, plot bool) error {
	type gen struct {
		name string
		fn   func() error
	}
	profile := func(name string, fn func(harness.Options) (harness.Profile, error)) gen {
		return gen{name, func() error {
			p, err := fn(opt)
			if err != nil {
				return err
			}
			fmt.Printf("== %s ==\n", name)
			if err := p.WriteCSV(os.Stdout); err != nil {
				return err
			}
			if plot {
				return p.Plot(os.Stdout, 72, 14)
			}
			return nil
		}}
	}
	snapshot := func(name string, fn func(harness.Options) (harness.SnapshotResult, error)) gen {
		return gen{name, func() error {
			r, err := fn(opt)
			if err != nil {
				return err
			}
			fmt.Printf("== %s ==\n", name)
			if err := r.Write(os.Stdout); err != nil {
				return err
			}
			if outdir != "" {
				ext := ".pgm"
				if r.Image.C == 3 {
					ext = ".ppm"
				}
				path := filepath.Join(outdir, name+"_"+r.App+ext)
				if err := pix.WritePNMFile(path, r.Image); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", path)
			}
			return nil
		}}
	}
	sweep := func(name string, fn func(harness.Options) ([]harness.Sweep, error)) gen {
		return gen{name, func() error {
			sweeps, err := fn(opt)
			if err != nil {
				return err
			}
			fmt.Printf("== %s ==\n", name)
			return harness.WriteSweepsCSV(os.Stdout, sweeps)
		}}
	}
	gens := []gen{
		{"fig10", func() error {
			rows, err := harness.Fig10Organizations(opt)
			if err != nil {
				return err
			}
			fmt.Println("== fig10 ==")
			return harness.WriteFig10(os.Stdout, rows)
		}},
		profile("fig11", harness.Fig11Conv2D),
		profile("fig12", harness.Fig12Histeq),
		profile("fig13", harness.Fig13DWT53),
		profile("fig14", harness.Fig14Debayer),
		profile("fig15", harness.Fig15Kmeans),
		snapshot("fig16", harness.Fig16Conv2DSnapshot),
		snapshot("fig17", harness.Fig17DWT53Snapshot),
		snapshot("fig18", harness.Fig18KmeansSnapshot),
		sweep("fig19", harness.Fig19Precision),
		sweep("fig20", harness.Fig20Storage),
	}
	ran := false
	for _, g := range gens {
		if fig == "all" || fig == g.name {
			if err := g.fn(); err != nil {
				return fmt.Errorf("%s: %w", g.name, err)
			}
			ran = true
			// Return the previous figure's retained snapshots before the
			// next one starts timing, so figures don't perturb each other.
			runtime.GC()
			debug.FreeOSMemory()
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q (want all or fig10..fig20)", fig)
	}
	return nil
}
