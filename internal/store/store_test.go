package store

import (
	"math"
	"testing"
)

func seq(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i * 3)
	}
	return out
}

func TestNewArrayValidation(t *testing.T) {
	if _, err := NewArray(nil, 0, 0, 1); err == nil {
		t.Error("dataBits=0 accepted")
	}
	if _, err := NewArray(nil, 33, 0, 1); err == nil {
		t.Error("dataBits=33 accepted")
	}
	if _, err := NewArray(nil, 8, -0.1, 1); err == nil {
		t.Error("negative prob accepted")
	}
	if _, err := NewArray(nil, 8, 1.1, 1); err == nil {
		t.Error("prob>1 accepted")
	}
	if _, err := NewArray(nil, 8, math.NaN(), 1); err == nil {
		t.Error("NaN prob accepted")
	}
}

func TestZeroProbabilityNeverFlips(t *testing.T) {
	init := seq(1000)
	a, err := NewArray(init, 8, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		for i := range init {
			if got := a.Read(i); got != init[i] {
				t.Fatalf("p=0 read[%d] = %d, want %d", i, got, init[i])
			}
		}
	}
	if a.flips != 0 {
		t.Errorf("p=0 injected %d flips", a.flips)
	}
}

func TestProbabilityOneFlipsEveryBit(t *testing.T) {
	a, err := NewArray([]int32{0}, 8, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Read(0); got != 0xFF {
		t.Errorf("p=1 read of 0 = %#x, want 0xFF (all 8 stored bits flipped)", got)
	}
	// Data-destructive: a second read flips them all back.
	if got := a.Read(0); got != 0 {
		t.Errorf("second p=1 read = %#x, want 0", got)
	}
}

func TestFlipRatePlausible(t *testing.T) {
	const n = 1 << 16
	const p = 1e-3
	a, err := NewArray(make([]int32, n), 32, p, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a.Read(i)
	}
	bitsRead := float64(n * 32)
	want := bitsRead * p
	got := float64(a.flips)
	if got < want/2 || got > want*2 {
		t.Errorf("flips = %v, expected about %v", got, want)
	}
}

func TestDataDestructivePersistence(t *testing.T) {
	init := seq(4096)
	a, err := NewArray(init, 8, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range init {
		a.Read(i)
	}
	if a.flips == 0 {
		t.Fatal("expected some flips at p=0.05")
	}
	// Raising accuracy (prob -> 0) must NOT repair the corruption.
	if err := a.SetProb(0); err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for i := range init {
		if a.Read(i) != init[i] {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Error("corruption vanished after raising voltage; storage must be data-destructive")
	}
}

func TestFlushRestoresPrecision(t *testing.T) {
	init := seq(4096)
	a, err := NewArray(init, 8, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range init {
		a.Read(i)
	}
	if err := a.Flush(init); err != nil {
		t.Fatal(err)
	}
	if err := a.SetProb(0); err != nil {
		t.Fatal(err)
	}
	for i := range init {
		if got := a.Read(i); got != init[i] {
			t.Fatalf("post-flush read[%d] = %d, want %d", i, got, init[i])
		}
	}
	if err := a.Flush(seq(5)); err == nil {
		t.Error("length-mismatched flush accepted")
	}
}

func TestReadCleanDoesNotConsumeRandomness(t *testing.T) {
	mk := func() *Array {
		a, err := NewArray(seq(256), 8, 0.01, 5)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := mk(), mk()
	for i := 0; i < 256; i++ {
		b.readClean(i % 256)
	}
	for i := 0; i < 256; i++ {
		if a.Read(i) != b.Read(i) {
			t.Fatal("readClean perturbed the fault sequence")
		}
	}
}

func TestDeterministicSeeds(t *testing.T) {
	run := func(seed uint64) []int32 {
		a, err := NewArray(seq(512), 8, 0.02, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int32, 512)
		for i := range out {
			out[i] = a.Read(i)
		}
		return out
	}
	a1, a2, b := run(9), run(9), run(10)
	same := true
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed produced different fault sequences")
		}
		if a1[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestSetProbValidation(t *testing.T) {
	a, _ := NewArray(seq(4), 8, 0, 1)
	if err := a.SetProb(2); err == nil {
		t.Error("SetProb(2) accepted")
	}
	if err := a.SetProb(math.NaN()); err == nil {
		t.Error("SetProb(NaN) accepted")
	}
}

func TestFlushThenRead(t *testing.T) {
	a, _ := NewArray(make([]int32, 4), 8, 0, 1)
	if err := a.Flush([]int32{0, 0, 77, 0}); err != nil {
		t.Fatal(err)
	}
	if a.Read(2) != 77 {
		t.Error("Flush not visible to Read")
	}
	if a.Len() != 4 {
		t.Errorf("Len = %d", a.Len())
	}
}

func TestDefaultLevelsLadder(t *testing.T) {
	if len(DefaultLevels) < 2 {
		t.Fatal("need at least two levels")
	}
	last := DefaultLevels[len(DefaultLevels)-1]
	if last.UpsetProb != 0 {
		t.Error("final level must be precise (paper Property 1)")
	}
	for i := 1; i < len(DefaultLevels); i++ {
		if DefaultLevels[i].UpsetProb > DefaultLevels[i-1].UpsetProb {
			t.Error("levels must have non-increasing upset probability")
		}
		if DefaultLevels[i].Voltage < DefaultLevels[i-1].Voltage {
			t.Error("levels must have non-decreasing voltage")
		}
	}
}

// TestUpsetScalesWithBitsRead captures the paper's Figure 20 observation
// that error accumulates with sample size: reading twice as many words
// should inject roughly twice as many upsets.
func TestUpsetScalesWithBitsRead(t *testing.T) {
	const p = 5e-4
	run := func(words int) uint64 {
		a, err := NewArray(make([]int32, words), 32, p, 1234)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < words; i++ {
			a.Read(i)
		}
		return a.flips
	}
	small := run(1 << 14)
	large := run(1 << 15)
	ratio := float64(large) / float64(small)
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("flip ratio for 2x reads = %v, want about 2", ratio)
	}
}
