package conv2d

import (
	"context"
	"math"
	"testing"

	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
	"anytime/internal/serve"
)

func testImage(t *testing.T, w, h int) *pix.Image {
	t.Helper()
	im, err := pix.SyntheticGray(w, h, 7)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestConfigValidation(t *testing.T) {
	in := testImage(t, 16, 16)
	cases := []Config{
		{KernelSize: 4},
		{KernelSize: -3},
		{PixelBits: 9},
		{Workers: -1},
		{Granularity: -1},
		{Storage: &StorageConfig{Prob: 2}},
	}
	for _, cfg := range cases {
		if _, err := Precise(in, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
		if _, err := New(in, cfg); err == nil {
			t.Errorf("config %+v accepted by New", cfg)
		}
	}
	rgb := pix.MustNew(4, 4, 3)
	if _, err := Precise(rgb, Config{}); err == nil {
		t.Error("RGB input accepted")
	}
}

func TestPreciseIsMeanFilter(t *testing.T) {
	// A constant image blurs to itself.
	in := pix.MustNew(12, 12, 1)
	in.Fill(77)
	out, err := Precise(in, Config{KernelSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Pix {
		if v != 77 {
			t.Fatalf("constant image changed: %d", v)
		}
	}
}

func TestPreciseKnownSmallCase(t *testing.T) {
	// 3x3 kernel on a single bright pixel in the center of a 3x3 image:
	// every output pixel averages a window containing the bright pixel
	// once or more (border clamping replicates edge pixels).
	in := pix.MustNew(3, 3, 1)
	in.SetGray(1, 1, 90)
	out, err := Precise(in, Config{KernelSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Gray(1, 1); got != 10 {
		t.Errorf("center = %d, want 10 (90/9)", got)
	}
}

func TestPreciseParallelMatchesSerial(t *testing.T) {
	in := testImage(t, 64, 48)
	serial, err := Precise(in, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Precise(in, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Equal(parallel) {
		t.Error("parallel baseline differs from serial")
	}
}

// TestAutomatonFinalEqualsPrecise is the central anytime guarantee: run to
// completion, the automaton's final output is bit-exact with the baseline.
func TestAutomatonFinalEqualsPrecise(t *testing.T) {
	in := testImage(t, 64, 64)
	want, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		run, err := New(in, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Wait(); err != nil {
			t.Fatal(err)
		}
		snap, ok := run.Out.Latest()
		if !ok || !snap.Final {
			t.Fatal("no final snapshot")
		}
		if !snap.Value.Equal(want) {
			t.Errorf("workers=%d: final output differs from precise baseline", workers)
		}
	}
}

// TestSNRIncreasesOverVersions: published snapshots must trend toward the
// precise output, ending at +Inf dB.
func TestSNRIncreasesOverVersions(t *testing.T) {
	in := testImage(t, 64, 64)
	want, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var snrs []float64
	run, err := New(in, Config{
		Granularity: 64 * 64 / 16,
		OnSnapshot: func(processed int, img *pix.Image) {
			db, err := metrics.SNR(want.Pix, img.Pix)
			if err != nil {
				t.Error(err)
				return
			}
			snrs = append(snrs, db)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(snrs) != 16 {
		t.Fatalf("got %d snapshots", len(snrs))
	}
	if !math.IsInf(snrs[len(snrs)-1], 1) {
		t.Errorf("final SNR = %v, want +Inf", snrs[len(snrs)-1])
	}
	// The trend must rise: last quarter mean above first quarter mean.
	q := len(snrs) / 4
	first, last := mean(snrs[:q]), mean(finiteOnly(snrs[len(snrs)-q:]))
	if last <= first {
		t.Errorf("SNR did not improve: first quarter %v, last quarter %v", first, last)
	}
	// Early snapshots must already be meaningful approximations (hold-fill
	// low-resolution rendering), not near-black frames.
	if snrs[0] < 5 {
		t.Errorf("first snapshot SNR %v dB; progressive rendering broken", snrs[0])
	}
}

func finiteOnly(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return []float64{1e9}
	}
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestReducedPrecisionOrdering reproduces Figure 19's qualitative result:
// at full sample size, fewer pixel bits give lower SNR, and 8 bits are
// exact.
func TestReducedPrecisionOrdering(t *testing.T) {
	in := testImage(t, 64, 64)
	ref, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	finalSNR := func(bits uint) float64 {
		run, err := New(in, Config{PixelBits: bits})
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Wait(); err != nil {
			t.Fatal(err)
		}
		snap, _ := run.Out.Latest()
		db, err := metrics.SNR(ref.Pix, snap.Value.Pix)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	s8, s6, s4, s2 := finalSNR(8), finalSNR(6), finalSNR(4), finalSNR(2)
	if !math.IsInf(s8, 1) {
		t.Errorf("8-bit final SNR = %v, want +Inf", s8)
	}
	if !(s6 > s4 && s4 > s2) {
		t.Errorf("precision ordering violated: 6b=%v 4b=%v 2b=%v", s6, s4, s2)
	}
	if s6 < 20 {
		t.Errorf("6-bit SNR %v dB implausibly low (paper: 37.9 dB)", s6)
	}
}

// TestStorageFaultsDegradeSNR reproduces Figure 20's qualitative result:
// higher read-upset probability gives lower final SNR; probability zero is
// exact.
func TestStorageFaultsDegradeSNR(t *testing.T) {
	in := testImage(t, 64, 64)
	ref, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	finalSNR := func(p float64) float64 {
		run, err := New(in, Config{Storage: &StorageConfig{Prob: p, Seed: 12}})
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Wait(); err != nil {
			t.Fatal(err)
		}
		snap, _ := run.Out.Latest()
		db, err := metrics.SNR(ref.Pix, snap.Value.Pix)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	s0 := finalSNR(0)
	if !math.IsInf(s0, 1) {
		t.Errorf("p=0 final SNR = %v, want +Inf", s0)
	}
	sHigh := finalSNR(1e-3)
	sLow := finalSNR(1e-5)
	if !(sLow > sHigh) {
		t.Errorf("fault ordering violated: p=1e-5 gives %v dB, p=1e-3 gives %v dB", sLow, sHigh)
	}
}

// TestInterruptMidRunYieldsValidOutput: stop partway; the latest snapshot
// must exist, be non-final, and have finite positive SNR.
func TestInterruptMidRunYieldsValidOutput(t *testing.T) {
	in := testImage(t, 128, 128)
	ref, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	firstSnap := make(chan struct{})
	closed := false
	run, err := New(in, Config{
		Granularity: 128 * 128 / 64,
		OnSnapshot: func(processed int, img *pix.Image) {
			if !closed {
				closed = true
				close(firstSnap)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-firstSnap
	run.Automaton.Stop()
	snap, ok := run.Out.Latest()
	if !ok {
		t.Fatal("no snapshot after stop")
	}
	db, err := metrics.SNR(ref.Pix, snap.Value.Pix)
	if err != nil {
		t.Fatal(err)
	}
	if db < 3 {
		t.Errorf("interrupted output SNR = %v dB, implausibly bad", db)
	}
}

func TestTinyImages(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {1, 7}, {5, 1}, {2, 2}} {
		in, err := pix.SyntheticGray(dim[0], dim[1], 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Precise(in, Config{KernelSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		run, err := New(in, Config{KernelSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Wait(); err != nil {
			t.Fatal(err)
		}
		snap, _ := run.Out.Latest()
		if !snap.Value.Equal(want) {
			t.Errorf("%dx%d: final != precise", dim[0], dim[1])
		}
	}
}

func TestKernelWeights(t *testing.T) {
	w, total := kernelWeights(Box, 5)
	for _, v := range w {
		if v != 1 {
			t.Fatalf("box weights = %v", w)
		}
	}
	if total != 5 {
		t.Errorf("box total = %d", total)
	}
	w, total = kernelWeights(Gaussian, 5)
	want := []int64{1, 4, 6, 4, 1}
	for i, v := range want {
		if w[i] != v {
			t.Fatalf("gaussian weights = %v, want %v", w, want)
		}
	}
	if total != 16 {
		t.Errorf("gaussian total = %d", total)
	}
}

func TestGaussianKernelValidationAndExactness(t *testing.T) {
	in := testImage(t, 48, 48)
	if _, err := Precise(in, Config{Kernel: Kernel(9)}); err == nil {
		t.Error("unknown kernel accepted")
	}
	want, err := Precise(in, Config{Kernel: Gaussian})
	if err != nil {
		t.Fatal(err)
	}
	box, err := Precise(in, Config{Kernel: Box})
	if err != nil {
		t.Fatal(err)
	}
	if want.Equal(box) {
		t.Error("gaussian and box kernels produced identical output")
	}
	run, err := New(in, Config{Kernel: Gaussian, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Wait(); err != nil {
		t.Fatal(err)
	}
	snap, _ := run.Out.Latest()
	if !snap.Value.Equal(want) {
		t.Error("gaussian automaton final differs from gaussian baseline")
	}
}

func TestGaussianPreservesConstant(t *testing.T) {
	in := pix.MustNew(16, 16, 1)
	in.Fill(123)
	out, err := Precise(in, Config{Kernel: Gaussian, KernelSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Pix {
		if v != 123 {
			t.Fatalf("gaussian changed a constant image: %d", v)
		}
	}
}

// TestResetReuseAfterInterrupt: a pooled automaton checked back in after an
// early stop (the deadline-serving path) must produce the bit-exact precise
// output on its next full checkout, with versions renumbered from 1.
func TestResetReuseAfterInterrupt(t *testing.T) {
	in := testImage(t, 48, 48)
	want, err := Precise(in, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	run, err := New(in, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 1: interrupt after the first published version.
	e := serve.Entry[*pix.Image]{Automaton: run.Automaton, Out: run.Out}
	if _, err := serve.RunUntil(context.Background(), e, func(core.Snapshot[*pix.Image]) bool { return true }, nil); err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Reset(); err != nil {
		t.Fatal(err)
	}
	// Cycle 2: run to completion; the output must match the precise
	// baseline bit for bit, with no pixels held over from cycle 1.
	if err := run.Automaton.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Wait(); err != nil {
		t.Fatal(err)
	}
	snap, ok := run.Out.Latest()
	if !ok || !snap.Final {
		t.Fatal("no final snapshot after reuse")
	}
	if snap.Version == 0 || !snap.Value.Equal(want) {
		t.Fatalf("reused run diverged from precise baseline (version %d)", snap.Version)
	}
}
