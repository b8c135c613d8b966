package kmeans

import (
	"context"
	"math"
	"testing"

	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
)

func testImage(t *testing.T, w, h int) *pix.Image {
	t.Helper()
	im, err := pix.SyntheticRGB(w, h, 33)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestConfigValidation(t *testing.T) {
	in := testImage(t, 8, 8)
	bad := []Config{
		{Workers: -1},
		{ClusterGranularity: -5},
	}
	for _, cfg := range bad {
		if _, err := Precise(in, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
		if _, err := New(in, cfg); err == nil {
			t.Errorf("config %+v accepted by New", cfg)
		}
	}
	gray := pix.MustNew(4, 4, 1)
	if _, err := Precise(gray, Config{}); err == nil {
		t.Error("grayscale input accepted")
	}
	empty := pix.MustNew(0, 0, 3)
	if _, err := Precise(empty, Config{}); err == nil {
		t.Error("empty image accepted")
	}
}

func TestNearestTieBreaksLowIndex(t *testing.T) {
	cents := []Centroid{{10, 0, 0}, {10, 0, 0}, {0, 0, 0}}
	if got := nearest(cents, 10, 0, 0); got != 0 {
		t.Errorf("tie broken to %d, want 0", got)
	}
	if got := nearest(cents, 1, 0, 0); got != 2 {
		t.Errorf("nearest = %d, want 2", got)
	}
}

func TestUpdateCentroidsEmptyClusterKeepsPrev(t *testing.T) {
	prev := []Centroid{{1, 2, 3}, {4, 5, 6}}
	sum := [][3]int64{{100, 200, 300}, {0, 0, 0}}
	count := []int64{10, 0}
	next := updateCentroids(prev, sum, count)
	if next[0] != (Centroid{10, 20, 30}) {
		t.Errorf("next[0] = %v", next[0])
	}
	if next[1] != prev[1] {
		t.Errorf("empty cluster moved: %v", next[1])
	}
}

func TestPreciseSeparatesDistinctColors(t *testing.T) {
	// An image of two well-separated colors must converge to those
	// colors: every centroid lands on one of them, and each is found.
	in := pix.MustNew(16, 16, 3)
	for p := 0; p < in.Pixels(); p++ {
		if p < in.Pixels()/2 {
			in.Pix[p*3], in.Pix[p*3+1], in.Pix[p*3+2] = 250, 10, 10
		} else {
			in.Pix[p*3], in.Pix[p*3+1], in.Pix[p*3+2] = 10, 10, 250
		}
	}
	cents, err := PreciseModel(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	found := map[Centroid]bool{}
	for _, c := range cents {
		found[c] = true
	}
	if len(cents) != clusters || len(found) != 2 || !found[Centroid{250, 10, 10}] || !found[Centroid{10, 10, 250}] {
		t.Errorf("centroids %v did not converge to the two colors", cents)
	}
}

func TestPreciseParallelMatchesSerial(t *testing.T) {
	in := testImage(t, 32, 24)
	a, err := Precise(in, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Precise(in, Config{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("parallel baseline differs from serial")
	}
}

func TestAutomatonFinalEqualsPrecise(t *testing.T) {
	in := testImage(t, 32, 32)
	want, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantModel, err := PreciseModel(in, Config{})
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
		model, ok := run.ModelBuf.Latest()
		if !ok || !model.Final {
			t.Fatal("no final model")
		}
		for i, c := range model.Value.Centroids {
			if c != wantModel[i] {
				t.Errorf("workers=%d: centroid %d = %v, want %v", workers, i, c, wantModel[i])
			}
		}
		snap, ok := run.Out.Latest()
		if !ok || !snap.Final {
			t.Fatal("no final output")
		}
		if !snap.Value.Equal(want) {
			t.Errorf("workers=%d: final output differs from precise baseline", workers)
		}
	}
}

func TestModelIterationsProgress(t *testing.T) {
	in := testImage(t, 32, 32)
	var seen []int
	run, err := New(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	run.ModelBuf.OnPublish(func(s core.Snapshot[*Model]) { seen = append(seen, s.Value.Iter) })
	if err := run.Automaton.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no model snapshots")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Errorf("iteration regressed: %v", seen)
		}
	}
	if got := seen[len(seen)-1]; got != lloydIters {
		t.Errorf("last snapshot from iteration %d, want %d", got, lloydIters)
	}
}

func TestOutputSNRTrendsToInf(t *testing.T) {
	in := testImage(t, 32, 32)
	want, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var snrs []float64
	run, err := New(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	run.Out.OnPublish(func(s core.Snapshot[*pix.Image]) {
		db, err := metrics.SNR(want.Pix, s.Value.Pix)
		if err != nil {
			t.Error(err)
			return
		}
		snrs = append(snrs, db)
	})
	if err := run.Automaton.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(snrs) == 0 {
		t.Fatal("no output snapshots")
	}
	if !math.IsInf(snrs[len(snrs)-1], 1) {
		t.Errorf("final SNR = %v, want +Inf", snrs[len(snrs)-1])
	}
}

func TestKGreaterThanPixels(t *testing.T) {
	in := testImage(t, 2, 2) // 4 pixels, fewer than the clusters
	want, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := New(in, Config{})
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
		t.Error("k>pixels: final != precise")
	}
}

func TestSinglePixel(t *testing.T) {
	in := testImage(t, 1, 1)
	want, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := New(in, Config{})
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
		t.Error("1x1: final != precise")
	}
}
