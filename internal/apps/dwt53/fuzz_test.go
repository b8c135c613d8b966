package dwt53

import (
	"testing"

	"anytime/internal/pix"
)

// FuzzLift1DRoundTrip: the stride-1 lifting must invert exactly for any
// byte-derived signal.
func FuzzLift1DRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data)
		if n == 0 || n > 4096 {
			return
		}
		src := make([]int32, n)
		for i, b := range data {
			src[i] = int32(int8(b)) * 257 // exercise negatives and magnitude
		}
		packed := make([]int32, n)
		fwdLift1D(func(i int) int32 { return src[i] },
			func(i int, v int32) { packed[i] = v }, n, 1)
		rec := make([]int32, n)
		invLift1D(func(i int) int32 { return packed[i] },
			func(i int, v int32) { rec[i] = v }, n)
		for i := range src {
			if rec[i] != src[i] {
				t.Fatalf("round trip failed at %d: %d != %d (n=%d)", i, rec[i], src[i], n)
			}
		}
	})
}

// FuzzForwardInverse2D: the full 2D multi-level transform must be lossless
// at stride 1 for arbitrary small geometries and contents. Sides up to 64
// reach every level count from none (a side of 1) to all of them, and odd
// region sides at each level.
func FuzzForwardInverse2D(f *testing.F) {
	f.Add(uint8(8), uint8(8), []byte{10, 200, 30})
	f.Add(uint8(1), uint8(1), []byte{})
	f.Add(uint8(3), uint8(63), []byte{255, 0})
	f.Add(uint8(64), uint8(17), []byte{7})
	f.Fuzz(func(t *testing.T, rw, rh uint8, data []byte) {
		w := int(rw)%64 + 1
		h := int(rh)%64 + 1
		im := MustImage(w, h, data)
		got, err := Precise(im, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(im) {
			t.Fatalf("%dx%d: forward+inverse not identity", w, h)
		}
	})
}

// MustImage builds a grayscale image filled from data for fuzzing.
func MustImage(w, h int, data []byte) *pix.Image {
	im := pix.MustNew(w, h, 1)
	for i := range im.Pix {
		if len(data) > 0 {
			im.Pix[i] = int32(data[i%len(data)])
		}
	}
	return im
}
