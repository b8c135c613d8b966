package debayer

import (
	"context"
	"math"
	"testing"

	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
)

func mosaic(t *testing.T, w, h int) (*pix.Image, *pix.Image) {
	t.Helper()
	rgb, err := pix.SyntheticRGB(w, h, 21)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pix.BayerGRBG(rgb)
	if err != nil {
		t.Fatal(err)
	}
	return m, rgb
}

func TestConfigValidation(t *testing.T) {
	m, _ := mosaic(t, 8, 8)
	if _, err := Precise(m, Config{Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := New(m, Config{Granularity: -1}); err == nil {
		t.Error("negative granularity accepted")
	}
	rgb := pix.MustNew(4, 4, 3)
	if _, err := Precise(rgb, Config{}); err == nil {
		t.Error("3-channel input accepted")
	}
}

func TestPreciseConstantMosaic(t *testing.T) {
	// A mosaic of a constant gray RGB image demosaics back to the same
	// constant everywhere.
	rgb := pix.MustNew(8, 8, 3)
	rgb.Fill(100)
	m, err := pix.BayerGRBG(rgb)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Precise(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Pix {
		if v != 100 {
			t.Fatalf("constant mosaic produced %d", v)
		}
	}
}

func TestPreciseSensorSitesExact(t *testing.T) {
	// At each mosaic site, the demosaiced image must reproduce the sensor
	// sample in that site's own channel exactly.
	m, _ := mosaic(t, 16, 16)
	out, err := Precise(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			c := pix.BayerChannelGRBG(x, y)
			if out.At(x, y, c) != m.Gray(x, y) {
				t.Fatalf("site (%d,%d) channel %d = %d, want sensor %d", x, y, c, out.At(x, y, c), m.Gray(x, y))
			}
		}
	}
}

func TestPreciseApproximatesOriginal(t *testing.T) {
	// Demosaicing a mosaic of a smooth image should land reasonably close
	// to the original RGB image.
	m, rgb := mosaic(t, 64, 64)
	out, err := Precise(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := metrics.SNR(rgb.Pix, out.Pix)
	if err != nil {
		t.Fatal(err)
	}
	if db < 10 {
		t.Errorf("demosaic SNR vs original = %v dB, implausibly low", db)
	}
}

func TestPreciseParallelMatchesSerial(t *testing.T) {
	m, _ := mosaic(t, 48, 36)
	serial, err := Precise(m, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Precise(m, Config{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Equal(parallel) {
		t.Error("parallel baseline differs from serial")
	}
}

func TestAutomatonFinalEqualsPrecise(t *testing.T) {
	m, _ := mosaic(t, 64, 48)
	want, err := Precise(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		run, err := New(m, Config{Workers: workers})
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

func TestSNRTrendsUpward(t *testing.T) {
	m, _ := mosaic(t, 64, 64)
	want, err := Precise(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var snrs []float64
	run, err := New(m, Config{Granularity: 64 * 64 / 16})
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
		t.Fatal("no snapshots")
	}
	if !math.IsInf(snrs[len(snrs)-1], 1) {
		t.Errorf("final SNR = %v, want +Inf", snrs[len(snrs)-1])
	}
	if snrs[0] < 5 {
		t.Errorf("first snapshot SNR = %v dB; progressive rendering broken", snrs[0])
	}
}

func TestTinyMosaics(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {2, 2}, {3, 5}, {1, 8}} {
		m, _ := mosaic(t, dim[0], dim[1])
		want, err := Precise(m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		run, err := New(m, Config{})
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
			t.Errorf("%v: final != precise", dim)
		}
	}
}
