package anytime_test

// Ablation benchmarks for the design choices DESIGN.md calls out, beyond
// the paper's numbered figures:
//
//   - histeq input sampling order (§IV-C3): the paper's pseudo-random (LFSR)
//     gather against the lattice cosets the histogram stage walks.
//   - the §IV-C2 scheduling policies on the Figure 2 pipeline (simulated).
//   - the iterative approximate-storage voltage ladder (§III-B1) versus
//     the diffusive sampled automaton on 2dconv.

import (
	"context"
	"testing"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/histeq"
	"anytime/internal/cachesim"
	"anytime/internal/perm"
	"anytime/internal/pix"
	"anytime/internal/sched"
	"anytime/internal/store"
)

// BenchmarkAblation_HisteqReorder measures the locality cost §IV-C3 flags
// in pseudo-random input sampling, on histeq's histogram of one 512×512
// input: every pixel gathered through the paper's LFSR order, against the
// same pixels read as the eight lattice cosets of the 2D tree order that
// the hist stage samples, each coset's rows in memory order. Both build
// the same histogram; only the read order differs.
func BenchmarkAblation_HisteqReorder(b *testing.B) {
	in, err := pix.SyntheticGray(512, 512, 1)
	if err != nil {
		b.Fatal(err)
	}
	ord, err := perm.PseudoRandom(in.Pixels(), 1)
	if err != nil {
		b.Fatal(err)
	}
	lat, err := perm.TreeRounds(in.H, in.W, in.Pixels()/8)
	if err != nil {
		b.Fatal(err)
	}
	var lfsr, lattice [histeq.Bins]int64
	var tLFSR, tLattice time.Duration
	for i := 0; i < b.N; i++ {
		lfsr, lattice = [histeq.Bins]int64{}, [histeq.Bins]int64{}
		start := time.Now()
		for pos := range ord.Len() {
			lfsr[uint8(in.Pix[ord.At(pos)])]++
		}
		tLFSR += time.Since(start)
		start = time.Now()
		for m := range lat.Len() {
			x0, y0, rows := lat.Band(m*lat.Size, (m+1)*lat.Size)
			for y := y0; y < y0+rows*lat.SY; y += lat.SY {
				for d := y*in.W + x0; d < (y+1)*in.W; d += lat.SX {
					lattice[uint8(in.Pix[d])]++
				}
			}
		}
		tLattice += time.Since(start)
	}
	if lfsr != lattice {
		b.Fatal("the two orders built different histograms")
	}
	b.ReportMetric(float64(tLFSR)/1e3/float64(b.N), "lfsr-us")
	b.ReportMetric(float64(tLattice)/1e3/float64(b.N), "lattice-us")
	b.ReportMetric(float64(tLFSR)/float64(tLattice), "speedup-x")
}

// BenchmarkAblation_SchedPolicies reports the simulated §IV-C2 tradeoff on
// the Figure 2 pipeline at a 16-worker budget.
func BenchmarkAblation_SchedPolicies(b *testing.B) {
	p := sched.Figure2Pipeline()
	var rows []sched.Comparison
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sched.Compare(p, 16, sched.DefaultPolicies())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Policy {
		case "first-output":
			b.ReportMetric(r.FirstOutput, "first-output-ttfo")
			b.ReportMetric(r.MeanGap, "first-output-gap")
		case "output-rate":
			b.ReportMetric(r.FirstOutput, "output-rate-ttfo")
			b.ReportMetric(r.MeanGap, "output-rate-gap")
		}
	}
}

// BenchmarkAblation_StorageLadder compares the iterative voltage-ladder
// automaton (§III-B1) with the diffusive sampled automaton (§III-B2) on
// 2dconv: time to the precise output and the ladder's modeled storage
// energy.
func BenchmarkAblation_StorageLadder(b *testing.B) {
	in, err := pix.SyntheticGray(192, 192, 1)
	if err != nil {
		b.Fatal(err)
	}
	levels := store.DefaultLevels
	var ladder, diffusive time.Duration
	for i := 0; i < b.N; i++ {
		lr, err := conv2d.NewIterativeStorage(in, conv2d.IterStorageConfig{Levels: levels, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if err := lr.Automaton.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := lr.Automaton.Wait(); err != nil {
			b.Fatal(err)
		}
		ladder = time.Since(start)

		dr, err := conv2d.New(in, conv2d.Config{})
		if err != nil {
			b.Fatal(err)
		}
		start = time.Now()
		if err := dr.Automaton.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := dr.Automaton.Wait(); err != nil {
			b.Fatal(err)
		}
		diffusive = time.Since(start)
	}
	b.ReportMetric(float64(ladder.Microseconds()), "ladder-us")
	b.ReportMetric(float64(diffusive.Microseconds()), "diffusive-us")
	b.ReportMetric(conv2d.LadderEnergy(levels), "ladder-storage-energy-x")
}

// BenchmarkAblation_CachePrefetch reports the §IV-C3 locality study: miss
// rates of the pseudo-random sweep without prefetching versus with the
// paper's deterministic permutation prefetcher.
func BenchmarkAblation_CachePrefetch(b *testing.B) {
	var rows []cachesim.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cachesim.Study(cachesim.Config{SizeWords: 4096, Ways: 8, LineWords: 16}, 1<<16, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Permutation == "pseudo-random" && r.Prefetcher == "none" {
			b.ReportMetric(r.MissRate, "rand-nopf-missrate")
		}
		if r.Permutation == "pseudo-random" && r.Prefetcher == "permutation" {
			b.ReportMetric(r.MissRate, "rand-permpf-missrate")
		}
		if r.Permutation == "sequential" && r.Prefetcher == "none" {
			b.ReportMetric(r.MissRate, "seq-nopf-missrate")
		}
	}
}
