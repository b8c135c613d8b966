package anytime_test

// Coverage of the remaining facade surface, exercised exactly as a
// downstream user would.

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"anytime"
)

func TestFacadeOrders(t *testing.T) {
	rev, err := anytime.ReverseSequential(4)
	if err != nil {
		t.Fatal(err)
	}
	if rev.At(0) != 3 || rev.At(3) != 0 {
		t.Errorf("ReverseSequential order wrong")
	}
	nd, err := anytime.TreeND(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if nd.Len() != 8 || !nd.IsBijective() {
		t.Errorf("TreeND(2,2,2) wrong")
	}
	t1, err := anytime.Tree1D(8)
	if err != nil || t1.At(1) != 4 {
		t.Errorf("Tree1D: %v, %v", t1.Indices(), err)
	}
	seq, err := anytime.Sequential(3)
	if err != nil || seq.Len() != 3 {
		t.Errorf("Sequential: %v", err)
	}
	l, err := anytime.NewLFSR(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if l.Period() != 255 {
		t.Errorf("LFSR period %d", l.Period())
	}
}

func TestFacadeMetrics(t *testing.T) {
	ref := []int32{10, 20}
	approx := []int32{10, 22}
	if _, err := anytime.SNR(ref, approx); err != nil {
		t.Fatal(err)
	}
	mse, err := anytime.MSE(ref, approx)
	if err != nil || mse != 2 {
		t.Errorf("MSE = %v, %v", mse, err)
	}
	psnr, err := anytime.PSNR(ref, ref, 255)
	if err != nil || !math.IsInf(psnr, 1) {
		t.Errorf("PSNR = %v, %v", psnr, err)
	}
	if anytime.FormatDB(anytime.InfDB) != "inf" {
		t.Error("FormatDB(InfDB) wrong")
	}
	if anytime.ScaleFloat(2, 1, 4) != 8 {
		t.Error("ScaleFloat wrong")
	}
}

func TestFacadeImages(t *testing.T) {
	g, err := anytime.NewGrayImage(4, 4)
	if err != nil || g.C != 1 {
		t.Fatalf("NewGrayImage: %v", err)
	}
	rgb, err := anytime.NewRGBImage(4, 4)
	if err != nil || rgb.C != 3 {
		t.Fatalf("NewRGBImage: %v", err)
	}
	sg, err := anytime.SyntheticGray(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := anytime.SyntheticRGB(8, 8, 1); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "img.pgm")
	if err := anytime.WritePNMFile(path, sg); err != nil {
		t.Fatal(err)
	}
	back, err := anytime.ReadPNMFile(path)
	if err != nil || !back.Equal(sg) {
		t.Errorf("PNM round trip: %v", err)
	}
}

// TestFacadeMapSampleWorkers exercises the worker-indexed map builder and
// DiffusiveWorkers through the facade.
func TestFacadeMapSampleWorkers(t *testing.T) {
	const n = 512
	ord, err := anytime.Tree1D(n)
	if err != nil {
		t.Fatal(err)
	}
	out := anytime.NewBuffer[int]("out", nil)
	seen := make([]int32, n)
	a := anytime.New()
	if err := a.AddStage("map", func(c *anytime.Context) error {
		return anytime.MapSampleWorkers(c, out, ord,
			func(worker, dst int) error {
				if worker < 0 || worker >= 4 {
					t.Errorf("worker index %d out of range", worker)
				}
				seen[dst]++
				return nil
			},
			func(processed int) (int, error) { return processed, nil },
			anytime.RoundConfig{Granularity: 64, Workers: 4})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("element %d visited %d times", i, c)
		}
	}

	// DiffusiveWorkers directly.
	out2 := anytime.NewBuffer[int]("out2", nil)
	b := anytime.New()
	var total int
	if err := b.AddStage("dw", func(c *anytime.Context) error {
		return anytime.DiffusiveWorkers(c, out2, 100,
			func(worker, pos int) error { total++; return nil },
			func(processed int) (int, error) { return processed, nil },
			anytime.RoundConfig{Granularity: 100})
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Errorf("DiffusiveWorkers ran %d updates", total)
	}
}

// TestFacadeErrFinalized checks the exported sentinel.
func TestFacadeErrFinalized(t *testing.T) {
	out := anytime.NewBuffer[int]("out", nil)
	if _, err := out.Publish(1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := out.Publish(2, false); err == nil {
		t.Error("publish after final accepted")
	} else if !errors.Is(err, anytime.ErrFinalized) {
		t.Errorf("err = %v", err)
	}
}
