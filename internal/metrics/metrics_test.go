package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSNRExactMatchIsInf(t *testing.T) {
	a := []int32{1, 2, 3, -4}
	db, err := SNR(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(db, 1) {
		t.Errorf("SNR of identical signals = %v, want +Inf", db)
	}
}

func TestSNRKnownValue(t *testing.T) {
	// signal power 100, noise power 1 -> 20 dB.
	ref := []int32{10}
	approx := []int32{9}
	db, err := SNR(ref, approx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(db-20) > 1e-9 {
		t.Errorf("SNR = %v, want 20", db)
	}
}

func TestSNRZeroSignal(t *testing.T) {
	db, err := SNR([]int32{0, 0}, []int32{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(db, -1) {
		t.Errorf("SNR with zero signal and nonzero noise = %v, want -Inf", db)
	}
}

func TestSNRLengthMismatch(t *testing.T) {
	if _, err := SNR([]int32{1}, []int32{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SNR(nil, nil); err == nil {
		t.Error("empty signals accepted")
	}
}

func TestMSEKnownValue(t *testing.T) {
	mse, err := MSE([]int32{0, 0, 0, 0}, []int32{1, 1, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if mse != 3 {
		t.Errorf("MSE = %v, want 3", mse)
	}
}

func TestPSNR(t *testing.T) {
	db, err := PSNR([]int32{255, 0}, []int32{255, 0}, 255)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(db, 1) {
		t.Errorf("PSNR exact = %v, want +Inf", db)
	}
	db, err = PSNR([]int32{255}, []int32{254}, 255)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * math.Log10(255*255)
	if math.Abs(db-want) > 1e-9 {
		t.Errorf("PSNR = %v, want %v", db, want)
	}
	if _, err := PSNR([]int32{1}, []int32{1}, 0); err == nil {
		t.Error("nonpositive peak accepted")
	}
}

func TestFormatDB(t *testing.T) {
	if s := FormatDB(InfDB); s != "inf" {
		t.Errorf("FormatDB(+Inf) = %q", s)
	}
	if s := FormatDB(math.Inf(-1)); s != "-inf" {
		t.Errorf("FormatDB(-Inf) = %q", s)
	}
	if s := FormatDB(15.849); s != "15.85" {
		t.Errorf("FormatDB = %q", s)
	}
}

// TestSNRMonotoneInNoise: for a fixed reference, scaling the error down must
// never decrease SNR. This is the property the anytime guarantee is stated
// in terms of.
func TestSNRMonotoneInNoise(t *testing.T) {
	f := func(sig []int32) bool {
		if len(sig) == 0 {
			return true
		}
		ref := make([]int32, len(sig))
		for i, v := range sig {
			ref[i] = v/2 + 100 // keep nonzero-ish signal
		}
		far := make([]int32, len(ref))
		near := make([]int32, len(ref))
		for i := range ref {
			far[i] = ref[i] + 8
			near[i] = ref[i] + 2
		}
		dbFar, err1 := SNR(ref, far)
		dbNear, err2 := SNR(ref, near)
		return err1 == nil && err2 == nil && dbNear >= dbFar
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSNRSymmetryUnderNegation: SNR(ref, approx) only depends on ref and the
// elementwise error, so negating both leaves it unchanged.
func TestSNRSymmetryUnderNegation(t *testing.T) {
	f := func(a, b []int16) bool {
		n := min(len(a), len(b))
		if n == 0 {
			return true
		}
		ref := make([]int32, n)
		approx := make([]int32, n)
		negRef := make([]int32, n)
		negApprox := make([]int32, n)
		for i := 0; i < n; i++ {
			ref[i] = int32(a[i])
			approx[i] = int32(b[i])
			negRef[i] = -ref[i]
			negApprox[i] = -approx[i]
		}
		x, err1 := SNR(ref, approx)
		y, err2 := SNR(negRef, negApprox)
		if err1 != nil || err2 != nil {
			return false
		}
		return x == y || (math.IsInf(x, 1) && math.IsInf(y, 1)) || math.Abs(x-y) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
