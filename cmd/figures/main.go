// Command figures regenerates the data behind every figure of the paper's
// evaluation section (Figures 10–20 of "The Anytime Automaton", ISCA 2016),
// the sampling orders of Figures 4 and 5, and the four ablations of design
// choices the paper discusses without plotting.
//
// Usage:
//
//	figures [-fig all|fig4|fig5|fig10|...|fig20|locality|sched|storage|reorder]
//	        [-size N] [-workers N] [-seed N] [-reps N] [-outdir DIR]
//
// Profiles and sweeps are printed as CSV to stdout; Figure 10 and the
// ablations print aligned tables; Figures 4 and 5 print the tree orders'
// visit sequences as ASCII frames; Figures 16–18 print their halt-point
// summary and, when -outdir is given, write the halted output image next
// to the baseline image as PGM/PPM files.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"anytime/internal/harness"
	"anytime/internal/perm"
	"anytime/internal/pix"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate (all, fig4, fig5, fig10..fig20, locality, sched, storage, reorder)")
	size := flag.Int("size", 512, "image side length (matrix dimension for fig10)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "workers per parallel stage")
	seed := flag.Uint64("seed", 1, "synthetic input seed")
	reps := flag.Int("reps", 3, "baseline timing repetitions")
	outdir := flag.String("outdir", "", "directory for figure 16-18 output images (optional)")
	plot := flag.Bool("plot", false, "render runtime-accuracy profiles as ASCII plots too")
	flag.Parse()

	opt := harness.Options{Size: *size, Workers: *workers, Seed: *seed, BaselineReps: *reps}
	if err := run(os.Stdout, *fig, opt, *outdir, *plot); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, fig string, opt harness.Options, outdir string, plot bool) error {
	type gen struct {
		name string
		fn   func() error
	}
	// table prints a figure's header, then the figure.
	table := func(name string, fn func() error) gen {
		return gen{name, func() error {
			fmt.Fprintf(w, "== %s ==\n", name)
			return fn()
		}}
	}
	tree := func(name string, rows, cols int) gen {
		return table(name, func() error {
			ord, err := perm.Tree2D(rows, cols) // one row is Tree1D(cols)
			if err != nil {
				return err
			}
			return treeFrames(w, ord, rows, cols)
		})
	}
	profile := func(name string, fn func(harness.Options) (harness.Profile, error)) gen {
		return table(name, func() error {
			p, err := fn(opt)
			if err != nil {
				return err
			}
			if err := p.WriteCSV(w); err != nil || !plot {
				return err
			}
			return p.Plot(w, 72, 14)
		})
	}
	snapshot := func(name string, fn func(harness.Options) (harness.SnapshotResult, error)) gen {
		return table(name, func() error {
			r, err := fn(opt)
			if err != nil {
				return err
			}
			if err := r.Write(w); err != nil || outdir == "" {
				return err
			}
			ext := ".pgm"
			if r.Image.C == 3 {
				ext = ".ppm"
			}
			path := filepath.Join(outdir, name+"_"+r.App+ext)
			if err := pix.WritePNMFile(path, r.Image); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "wrote %s\n", path)
			return err
		})
	}
	sweep := func(name string, fn func(harness.Options) ([]harness.Sweep, error)) gen {
		return table(name, func() error {
			sweeps, err := fn(opt)
			if err != nil {
				return err
			}
			return harness.WriteSweepsCSV(w, sweeps)
		})
	}
	gens := []gen{
		tree("fig4", 1, 16),
		tree("fig5", 8, 8),
		table("fig10", func() error {
			rows, err := harness.Fig10Organizations(opt)
			if err != nil {
				return err
			}
			return harness.WriteFig10(w, rows)
		}),
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
		table("locality", func() error { return locality(w, opt) }),
		table("sched", func() error { return schedule(w) }),
		table("storage", func() error { return storage(w, opt) }),
		table("reorder", func() error { return reorder(w, opt) }),
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
		return fmt.Errorf("unknown figure %q (want all, fig4, fig5, fig10..fig20, locality, sched, storage or reorder)", fig)
	}
	return nil
}

// treeFrames prints an order's visit sequence and, after every doubling
// prefix, which of the rows×cols elements it has visited ('#') — the
// construction behind the paper's Figures 4 (1-D tree) and 5 (2-D tree).
func treeFrames(w io.Writer, ord perm.Order, rows, cols int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "visit order: %v\n", ord.Indices())
	n := ord.Len()
	visited := []byte(strings.Repeat(".", n))
	for next, prefix := 0, 1; next < n; prefix = min(2*prefix, n) {
		for ; next < prefix; next++ {
			visited[ord.At(next)] = '#'
		}
		fmt.Fprintf(&b, "after %d:\n", prefix)
		for r := range rows {
			fmt.Fprintf(&b, "  %s\n", visited[r*cols:(r+1)*cols])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
