package conv2d

import (
	"context"
	"math"
	"testing"

	"anytime/internal/metrics"
	"anytime/internal/pix"
	"anytime/internal/store"
)

func TestIterStorageConfigValidation(t *testing.T) {
	in := testImage(t, 16, 16)
	bad := []IterStorageConfig{
		{Levels: []store.VoltageLevel{}},
		{Levels: []store.VoltageLevel{{UpsetProb: 1e-3}}}, // final not precise
		{Levels: []store.VoltageLevel{ // accuracy decreases
			{UpsetProb: 1e-7}, {UpsetProb: 1e-3}, {UpsetProb: 0},
		}},
		{Levels: []store.VoltageLevel{{UpsetProb: 2}, {UpsetProb: 0}}},
	}
	for i, cfg := range bad {
		// Force non-nil Levels to survive withDefaults for the cases that
		// set them.
		if _, err := NewIterativeStorage(in, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	rgb := pix.MustNew(4, 4, 3)
	if _, err := NewIterativeStorage(rgb, IterStorageConfig{}); err == nil {
		t.Error("RGB input accepted")
	}
}

// TestIterStorageFinalIsExact: the ladder's last (nominal) pass must be
// bit-exact with the precise baseline despite corruption injected by the
// earlier low-voltage passes — this is exactly what the flush between
// intermediate computations guarantees.
func TestIterStorageFinalIsExact(t *testing.T) {
	in := testImage(t, 48, 48)
	want, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewIterativeStorage(in, IterStorageConfig{
		Levels: []store.VoltageLevel{
			{Name: "very-drowsy", UpsetProb: 1e-2, PowerSave: 0.9},
			{Name: "drowsy", UpsetProb: 1e-4, PowerSave: 0.6},
			{Name: "nominal", UpsetProb: 0},
		},
		Seed: 9,
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
	snap, ok := run.Out.Latest()
	if !ok || !snap.Final {
		t.Fatal("no final snapshot")
	}
	if !snap.Value.Equal(want) {
		t.Error("final ladder output differs from precise baseline")
	}
}

// TestIterStoragePassAccuracyIncreases: each pass's SNR (vs the precise
// output) must improve up the voltage ladder, ending at +Inf.
func TestIterStoragePassAccuracyIncreases(t *testing.T) {
	in := testImage(t, 64, 64)
	ref, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var snrs []float64
	run, err := NewIterativeStorage(in, IterStorageConfig{
		Levels: []store.VoltageLevel{
			{Name: "deep", UpsetProb: 3e-3, PowerSave: 0.9},
			{Name: "mid", UpsetProb: 1e-4, PowerSave: 0.6},
			{Name: "nominal", UpsetProb: 0},
		},
		Seed: 4,
		OnPass: func(level store.VoltageLevel, img *pix.Image) {
			db, err := metrics.SNR(ref.Pix, img.Pix)
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
	if len(snrs) != 3 {
		t.Fatalf("observed %d passes", len(snrs))
	}
	if !(snrs[0] < snrs[1]) {
		t.Errorf("accuracy did not increase up the ladder: %v", snrs)
	}
	if !math.IsInf(snrs[2], 1) {
		t.Errorf("nominal pass SNR = %v, want +Inf", snrs[2])
	}
}

// TestIterStorageDefaultLadder runs the store.DefaultLevels ladder end to
// end; the default's tiny probabilities may inject no faults on a small
// image, but the run must still complete exactly.
func TestIterStorageDefaultLadder(t *testing.T) {
	in := testImage(t, 32, 32)
	want, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewIterativeStorage(in, IterStorageConfig{Seed: 1})
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
		t.Error("default ladder final != precise")
	}
}

func TestLadderEnergy(t *testing.T) {
	if got := LadderEnergy(nil); got != 0 {
		t.Errorf("empty ladder energy = %v", got)
	}
	levels := []store.VoltageLevel{
		{PowerSave: 0.9}, {PowerSave: 0.5}, {PowerSave: 0},
	}
	// (0.1 + 0.5 + 1.0) / 3 = 0.5333…
	want := (0.1 + 0.5 + 1.0) / 3
	if got := LadderEnergy(levels); math.Abs(got-want) > 1e-12 {
		t.Errorf("LadderEnergy = %v, want %v", got, want)
	}
	// A ladder with savings must cost less than all-nominal execution.
	if LadderEnergy(levels) >= 1 {
		t.Error("ladder reports no energy saving")
	}
}
