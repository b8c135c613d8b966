package pix

import (
	"testing"
	"testing/quick"

	"anytime/internal/perm"
)

// holdFillReference is the direct per-pixel formulation of HoldFill's
// contract: each unfilled pixel takes the value of its nearest filled
// ancestor in the block hierarchy (clearing low coordinate bits level by
// level). The production implementation is an O(n) coarse-to-fine
// propagation; this reference pins its semantics.
func holdFillReference(src *Image, filled []bool) *Image {
	out := src.Clone()
	maxLevel := uint(0)
	for dim := max(src.W, src.H) - 1; dim > 0; dim >>= 1 {
		maxLevel++
	}
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			if filled[y*src.W+x] {
				continue
			}
			for lvl := uint(1); lvl <= maxLevel; lvl++ {
				ax := x >> lvl << lvl
				ay := y >> lvl << lvl
				if filled[ay*src.W+ax] {
					for c := 0; c < src.C; c++ {
						out.Set(x, y, c, src.At(ax, ay, c))
					}
					break
				}
			}
		}
	}
	return out
}

func TestHoldFillMaskLengthValidation(t *testing.T) {
	im := MustNew(4, 4, 1)
	if _, err := HoldFill(im, make([]bool, 3)); err == nil {
		t.Error("short mask accepted")
	}
}

func TestHoldFillAllFilledIsClone(t *testing.T) {
	im, err := SyntheticGray(16, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	filled := make([]bool, 16*12)
	for i := range filled {
		filled[i] = true
	}
	got, err := HoldFill(im, filled)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(im) {
		t.Error("fully filled HoldFill changed pixels")
	}
	got.SetGray(0, 0, 99)
	if im.Gray(0, 0) == 99 {
		t.Error("HoldFill aliases the source")
	}
}

func TestHoldFillNothingFilledKeepsSource(t *testing.T) {
	im := MustNew(8, 8, 1)
	im.Fill(50)
	got, err := HoldFill(im, make([]bool, 64))
	if err != nil {
		t.Fatal(err)
	}
	// No ancestor is filled, so the output equals the (unmodified) source.
	if !got.Equal(im) {
		t.Error("unfilled HoldFill invented values")
	}
}

func TestHoldFillRootOnly(t *testing.T) {
	im := MustNew(8, 8, 1)
	im.SetGray(0, 0, 7)
	filled := make([]bool, 64)
	filled[0] = true
	got, err := HoldFill(im, filled)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got.Pix {
		if v != 7 {
			t.Fatalf("root-only fill produced %d", v)
		}
	}
}

// TestHoldFillTreePrefixGivesBlocks: with a 2D-tree-order prefix filled,
// the result must be a block-replicated low-resolution image.
func TestHoldFillTreePrefixGivesBlocks(t *testing.T) {
	const side = 16
	im, err := SyntheticGray(side, side, 8)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := perm.Tree2D(side, side)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = 16 // completes the 4x4 grid: blocks of 4x4
	filled := make([]bool, side*side)
	for i := 0; i < prefix; i++ {
		filled[ord.At(i)] = true
	}
	got, err := HoldFill(im, filled)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			want := im.Gray(x/4*4, y/4*4)
			if got.Gray(x, y) != want {
				t.Fatalf("(%d,%d) = %d, want block value %d", x, y, got.Gray(x, y), want)
			}
		}
	}
}

// TestHoldFillMatchesReference: the O(n) propagation must agree with the
// per-pixel ancestor-probing reference on arbitrary geometries, channel
// counts and fill masks.
func TestHoldFillMatchesReference(t *testing.T) {
	f := func(rawW, rawH uint8, rgb bool, mask []byte) bool {
		w := int(rawW)%24 + 1
		h := int(rawH)%24 + 1
		c := 1
		if rgb {
			c = 3
		}
		im := MustNew(w, h, c)
		for i := range im.Pix {
			im.Pix[i] = int32(i*13%251) + 1
		}
		filled := make([]bool, w*h)
		for i := range filled {
			if len(mask) > 0 {
				filled[i] = mask[i%len(mask)]&1 == 1
			}
		}
		got, err := HoldFill(im, filled)
		if err != nil {
			return false
		}
		return got.Equal(holdFillReference(im, filled))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestHoldFillMatchesReferenceOnTreePrefixes checks agreement on the masks
// that actually occur in the applications: prefixes of the tree order.
func TestHoldFillMatchesReferenceOnTreePrefixes(t *testing.T) {
	for _, dims := range [][2]int{{16, 16}, {13, 7}, {1, 9}, {32, 8}} {
		w, h := dims[0], dims[1]
		im := MustNew(w, h, 1)
		for i := range im.Pix {
			im.Pix[i] = int32(i)
		}
		ord, err := perm.Tree2D(h, w)
		if err != nil {
			t.Fatal(err)
		}
		filled := make([]bool, w*h)
		for i := 0; i < ord.Len(); i++ {
			filled[ord.At(i)] = true
			got, err := HoldFill(im, filled)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(holdFillReference(im, filled)) {
				t.Fatalf("%dx%d: mismatch after %d filled", w, h, i+1)
			}
		}
	}
}

func BenchmarkHoldFillQuarterFilled(b *testing.B) {
	const side = 512
	im, err := SyntheticGray(side, side, 2)
	if err != nil {
		b.Fatal(err)
	}
	ord, err := perm.Tree2D(side, side)
	if err != nil {
		b.Fatal(err)
	}
	filled := make([]bool, side*side)
	for i := 0; i < side*side/4; i++ {
		filled[ord.At(i)] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HoldFill(im, filled); err != nil {
			b.Fatal(err)
		}
	}
}
