package dwt53

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
)

func testImage(t *testing.T, w, h int) *pix.Image {
	t.Helper()
	im, err := pix.SyntheticGray(w, h, 29)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestConfigValidation(t *testing.T) {
	in := testImage(t, 16, 16)
	bad := Config{Workers: -2}
	if _, err := Precise(in, bad); err == nil {
		t.Errorf("config %+v accepted", bad)
	}
	if _, err := New(in, bad); err == nil {
		t.Errorf("config %+v accepted by New", bad)
	}
	rgb := pix.MustNew(4, 4, 3)
	if _, err := Precise(rgb, Config{}); err == nil {
		t.Error("RGB input accepted")
	}
	if _, err := Forward(in, Config{}, 0); err == nil {
		t.Error("stride 0 accepted")
	}
}

// TestLift1DRoundTrip: the 1D lifting at stride 1 is exactly invertible for
// arbitrary signals and lengths, including odd lengths and extreme values.
func TestLift1DRoundTrip(t *testing.T) {
	f := func(raw []int16, pad uint8) bool {
		n := len(raw)
		if n == 0 {
			return true
		}
		src := make([]int32, n)
		for i, v := range raw {
			src[i] = int32(v)
		}
		packed := make([]int32, n)
		fwdLift1D(func(i int) int32 { return src[i] },
			func(i int, v int32) { packed[i] = v }, n, 1)
		rec := make([]int32, n)
		invLift1D(func(i int) int32 { return packed[i] },
			func(i int, v int32) { rec[i] = v }, n)
		for i := range src {
			if rec[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLift1DTinySignals(t *testing.T) {
	for _, src := range [][]int32{{5}, {5, -3}, {1, 2, 3}, {9, 9, 9, 9}} {
		n := len(src)
		packed := make([]int32, n)
		fwdLift1D(func(i int) int32 { return src[i] },
			func(i int, v int32) { packed[i] = v }, n, 1)
		rec := make([]int32, n)
		invLift1D(func(i int) int32 { return packed[i] },
			func(i int, v int32) { rec[i] = v }, n)
		for i := range src {
			if rec[i] != src[i] {
				t.Fatalf("signal %v: rec %v", src, rec)
			}
		}
	}
}

// TestForwardInverseIdentity: the precise 2D multi-level transform is
// losslessly invertible for arbitrary image sizes.
func TestForwardInverseIdentity(t *testing.T) {
	f := func(rawW, rawH uint8) bool {
		w := int(rawW)%40 + 1
		h := int(rawH)%40 + 1
		in, err := pix.SyntheticGray(w, h, uint64(w*h))
		if err != nil {
			return false
		}
		got, err := Precise(in, Config{})
		if err != nil {
			return false
		}
		return got.Equal(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestForwardCompacts(t *testing.T) {
	// A smooth image's detail coefficients must be small: per coefficient,
	// the deepest approximation band (the top-left 64>>levels square)
	// carries far more energy than the detail bands around it.
	in := testImage(t, 64, 64)
	coef, err := Forward(in, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const side = 64 >> levels
	var approxEnergy, detailEnergy float64
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			e := float64(coef.Gray(x, y)) * float64(coef.Gray(x, y))
			if x < side && y < side {
				approxEnergy += e / (side * side)
			} else {
				detailEnergy += e / (64*64 - side*side)
			}
		}
	}
	if approxEnergy < 10*detailEnergy {
		t.Errorf("energy not compacted: %v per approximation coefficient, %v per detail", approxEnergy, detailEnergy)
	}
}

func TestPerforatedStridesImproveMonotonically(t *testing.T) {
	in := testImage(t, 64, 64)
	cfg := Config{}
	var prev float64 = math.Inf(-1)
	for _, stride := range []int{8, 4, 2} {
		coef, err := Forward(in, cfg, stride)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Inverse(coef, cfg)
		if err != nil {
			t.Fatal(err)
		}
		db, err := metrics.SNR(in.Pix, rec.Pix)
		if err != nil {
			t.Fatal(err)
		}
		if db < prev {
			t.Errorf("stride %d SNR %v dB below coarser stride's %v dB", stride, db, prev)
		}
		prev = db
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	in := testImage(t, 48, 40)
	a, err := Forward(in, Config{Workers: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Forward(in, Config{Workers: 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("parallel forward differs from serial")
	}
}

func TestAutomatonFinalEqualsInput(t *testing.T) {
	in := testImage(t, 64, 64)
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
			t.Fatal("no final output")
		}
		if !snap.Value.Equal(in) {
			t.Errorf("workers=%d: final reconstruction differs from input (lossless 5/3 violated)", workers)
		}
	}
}

func TestAutomatonPassesReportStrides(t *testing.T) {
	in := testImage(t, 32, 32)
	var snrs []float64
	var finals []bool
	run, err := New(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	run.Out.OnPublish(func(s core.Snapshot[*pix.Image]) {
		db, err := metrics.SNR(in.Pix, s.Value.Pix)
		if err != nil {
			t.Error(err)
			return
		}
		snrs = append(snrs, db)
		finals = append(finals, s.Final)
	})
	if err := run.Automaton.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(snrs) == 0 {
		t.Fatal("no passes observed")
	}
	// The async consumer may skip intermediate passes, but never observes
	// more than the schedule has, and only the stride-1 pass is exact.
	if limit := len(strides); len(snrs) > limit {
		t.Errorf("%d passes observed from a %d-stride schedule", len(snrs), limit)
	}
	last := len(snrs) - 1
	if !finals[last] || !math.IsInf(snrs[last], 1) {
		t.Errorf("final pass: final=%v SNR=%v, want final and +Inf", finals[last], snrs[last])
	}
	for i := 0; i < last; i++ {
		if finals[i] || math.IsInf(snrs[i], 1) {
			t.Errorf("perforated pass %d: final=%v SNR=%v, want an approximation", i, finals[i], snrs[i])
		}
	}
}

func TestTinyImages(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {2, 2}, {3, 1}, {1, 5}, {5, 7}} {
		in := testImage(t, dim[0], dim[1])
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
		if !snap.Value.Equal(in) {
			t.Errorf("%v: final != input", dim)
		}
	}
}
