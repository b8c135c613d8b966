package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/histeq"
	"anytime/internal/cachesim"
	"anytime/internal/harness"
	"anytime/internal/perm"
	"anytime/internal/pix"
	"anytime/internal/sched"
	"anytime/internal/store"
)

// locality is the §IV-C3 cache study: demand miss rates of a sweep over
// one size×size image (one word per pixel) in each sampling order, with
// no prefetcher, a next-line prefetcher and the paper's permutation
// prefetcher.
func locality(w io.Writer, opt harness.Options) error {
	cfg := cachesim.Config{SizeWords: 4096, Ways: 8, LineWords: 16}
	words := opt.Size * opt.Size
	rows, err := cachesim.Study(cfg, words, opt.Seed)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "sweep of %d words through a %d-word %d-way cache (%d-word lines):\n%s",
		words, cfg.SizeWords, cfg.Ways, cfg.LineWords, cachesim.FormatStudy(rows))
	return err
}

// schedule is the §IV-C2 policy comparison, simulated: each allocation
// policy and dynamic reassignment on the Figure 2 and histeq pipeline
// models at a 16-worker budget.
func schedule(w io.Writer) error {
	const budget = 16
	var b strings.Builder
	for _, p := range []struct {
		name string
		p    sched.Pipeline
	}{{"figure2", sched.Figure2Pipeline()}, {"histeq", sched.HisteqPipeline()}} {
		rows, err := sched.Compare(p.p, budget, sched.DefaultPolicies())
		if err != nil {
			return err
		}
		dyn, err := sched.SimulateDynamic(p.p, budget)
		if err != nil {
			return err
		}
		rows = append(rows, sched.Comparison{Policy: "dynamic", FirstOutput: dyn.FirstOutput,
			MeanGap: dyn.MeanGap, Final: dyn.Final, Work: dyn.Work})
		fmt.Fprintf(&b, "%s pipeline, %d workers:\n", p.name, budget)
		fmt.Fprintf(&b, "  %-14s %-16s %12s %10s %10s %8s\n", "policy", "allocation", "first-output", "mean-gap", "precise", "work")
		for _, r := range rows {
			alloc := "(reassigned)"
			if r.Allocation != nil {
				alloc = fmt.Sprint(r.Allocation)
			}
			fmt.Fprintf(&b, "  %-14s %-16s %12.2f %10.2f %10.2f %8.1f\n",
				r.Policy, alloc, r.FirstOutput, r.MeanGap, r.Final, r.Work)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// storage compares the iterative voltage-ladder 2dconv automaton (§III-B1)
// with the diffusive sampled one (§III-B2), one worker each: the fastest
// of opt.BaselineReps runs to the precise output, and the ladder's modeled
// storage read energy.
func storage(w io.Writer, opt harness.Options) error {
	in, err := pix.SyntheticGray(opt.Size, opt.Size, opt.Seed)
	if err != nil {
		return err
	}
	levels := store.DefaultLevels
	ladder, err := bestRun(opt.BaselineReps, func() (*conv2d.Run, error) {
		return conv2d.NewIterativeStorage(in, conv2d.IterStorageConfig{Levels: levels, Seed: opt.Seed})
	})
	if err != nil {
		return err
	}
	diffusive, err := bestRun(opt.BaselineReps, func() (*conv2d.Run, error) {
		return conv2d.New(in, conv2d.Config{})
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "2dconv %dx%d to the precise output: %d-level ladder %v, diffusive %v (%.2fx); ladder storage energy %.2fx nominal\n",
		opt.Size, opt.Size, len(levels), ladder.Round(time.Microsecond), diffusive.Round(time.Microsecond),
		float64(ladder)/float64(diffusive), conv2d.LadderEnergy(levels))
	return err
}

// bestRun builds a fresh automaton reps times and returns the fastest
// Start-to-precise time, construction excluded.
func bestRun(reps int, build func() (*conv2d.Run, error)) (time.Duration, error) {
	var best time.Duration
	for i := range max(reps, 1) {
		r, err := build()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := r.Automaton.Start(context.Background()); err != nil {
			return 0, err
		}
		if err := r.Automaton.Wait(); err != nil {
			return 0, err
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// reorder measures the locality cost §IV-C3 flags in pseudo-random input
// sampling, on histeq's histogram of one size×size input: every pixel
// gathered through the paper's LFSR order, against the same pixels read
// coset by coset of the lattice rounds the hist stage samples, each coset's
// rows in memory order. Both build the same histogram; only the read order
// differs. Each timing is the fastest of opt.BaselineReps batches of 50.
func reorder(w io.Writer, opt harness.Options) error {
	in, err := pix.SyntheticGray(opt.Size, opt.Size, opt.Seed)
	if err != nil {
		return err
	}
	ord, err := perm.PseudoRandom(in.Pixels(), opt.Seed)
	if err != nil {
		return err
	}
	lat, err := perm.TreeRounds(in.H, in.W, max(in.Pixels()/8, 1))
	if err != nil {
		return err
	}
	const batch = 50
	var lfsr, lattice [histeq.Bins]int64
	tLFSR, err := harness.TimeBaseline(func() error {
		for range batch {
			lfsr = [histeq.Bins]int64{}
			for pos := range ord.Len() {
				lfsr[uint8(in.Pix[ord.At(pos)])]++
			}
		}
		return nil
	}, max(opt.BaselineReps, 1))
	if err != nil {
		return err
	}
	tLattice, err := harness.TimeBaseline(func() error {
		for range batch {
			lattice = [histeq.Bins]int64{}
			for m := range lat.Len() {
				x0, y0, rows := lat.Band(m*lat.Size, (m+1)*lat.Size)
				for y := y0; y < y0+rows*lat.SY; y += lat.SY {
					for d := y*in.W + x0; d < (y+1)*in.W; d += lat.SX {
						lattice[uint8(in.Pix[d])]++
					}
				}
			}
		}
		return nil
	}, max(opt.BaselineReps, 1))
	if err != nil {
		return err
	}
	if lfsr != lattice {
		return fmt.Errorf("the two orders built different histograms")
	}
	perGather := func(d time.Duration) float64 { return float64(d) / 1e3 / batch }
	_, err = fmt.Fprintf(w, "histeq histogram of %dx%d: LFSR gather %.1f µs, lattice walk %.1f µs (%.2fx)\n",
		opt.Size, opt.Size, perGather(tLFSR), perGather(tLattice), float64(tLFSR)/float64(tLattice))
	return err
}
