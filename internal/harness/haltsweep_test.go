package harness

import (
	"math"
	"testing"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/core"
	"anytime/internal/pix"
)

func conv2dBuild(t *testing.T, in *pix.Image) func() (*core.Automaton, *core.Buffer[*pix.Image], error) {
	t.Helper()
	return func() (*core.Automaton, *core.Buffer[*pix.Image], error) {
		run, err := conv2d.New(in, conv2d.Config{Workers: 2})
		if err != nil {
			return nil, nil, err
		}
		return run.Automaton, run.Out, nil
	}
}

func TestHaltSweepValidation(t *testing.T) {
	in, err := pix.SyntheticGray(16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := conv2dBuild(t, in)
	if _, err := HaltSweep(build, in, 0, []float64{0.5}); err == nil {
		t.Error("zero baseline accepted")
	}
	if _, err := HaltSweep(build, in, time.Millisecond, nil); err == nil {
		t.Error("empty fractions accepted")
	}
	if _, err := HaltSweep(build, in, time.Millisecond, []float64{-1}); err == nil {
		t.Error("negative fraction accepted")
	}
}

// TestHaltSweepMatchesObserverProfile validates the harness's central
// methodological claim (see the package comment): each snapshot the
// single-run observer records is exactly what a halt at that moment would
// observe. The image at version v is a pure function of v — tree order and
// granularity are fixed and rounds are barriers — so a halted run that
// delivers version v must score the observer run's SNR at version v,
// whatever the two runs' clocks did.
func TestHaltSweepMatchesObserverProfile(t *testing.T) {
	in, err := pix.SyntheticGray(160, 160, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := conv2d.Config{Workers: 2}
	ref, err := conv2d.Precise(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	build := conv2dBuild(t, in)

	// Observer curve from a single run.
	a, out, err := build()
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(ref, 0)
	out.OnPublish(col.Observe)
	if _, err := run(a, out, 0); err != nil {
		t.Fatal(err)
	}
	observed, err := col.Curve()
	if err != nil {
		t.Fatal(err)
	}
	snrAt := make(map[core.Version]float64, len(observed))
	for _, s := range observed {
		snrAt[s.Version] = s.SNR
	}

	// Halting sweep, the paper's procedure, at budgets from "first output"
	// to "most of the run". Each halted buffer still holds what was scored.
	var halted []*core.Buffer[*pix.Image]
	fractions := []float64{0.001, 0.1, 0.2, 0.4, 0.8}
	swept, err := HaltSweep(func() (*core.Automaton, *core.Buffer[*pix.Image], error) {
		a, out, err := build()
		halted = append(halted, out)
		return a, out, err
	}, ref, observed[len(observed)-1].Elapsed, fractions)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept.Points) != len(fractions) {
		t.Fatalf("%d sweep points", len(swept.Points))
	}
	for i, pt := range swept.Points {
		snap, _ := halted[i].Latest()
		t.Logf("halt@%.3f: version %d of %d, %v dB", fractions[i], snap.Version, len(observed), pt.SNR)
		want, ok := snrAt[snap.Version]
		if !ok {
			t.Fatalf("halt@%.3f delivered version %d, which the observer run never published", fractions[i], snap.Version)
		}
		if pt.SNR != want {
			t.Errorf("halt@%.3f: version %d scores %v dB halted, %v dB observed", fractions[i], snap.Version, pt.SNR, want)
		}
	}
}

func TestHaltSweepGenerousBudgetReachesPrecise(t *testing.T) {
	in, err := pix.SyntheticGray(48, 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := conv2d.Precise(in, conv2d.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := TimeBaseline(func() error {
		_, err := conv2d.Precise(in, conv2d.Config{Workers: 2})
		return err
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := HaltSweep(conv2dBuild(t, in), ref, baseline, []float64{1000})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p.Points[0].SNR, 1) {
		t.Errorf("generous budget did not reach precise output: %v dB", p.Points[0].SNR)
	}
}
