package pix

import (
	"bytes"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestNewGeometryValidation(t *testing.T) {
	if _, err := New(-1, 4, 1); err == nil {
		t.Error("negative width accepted")
	}
	if _, err := New(4, -1, 1); err == nil {
		t.Error("negative height accepted")
	}
	if _, err := New(4, 4, 0); err == nil {
		t.Error("zero channels accepted")
	}
	im, err := New(0, 0, 3)
	if err != nil {
		t.Fatalf("0x0 image rejected: %v", err)
	}
	if im.Pixels() != 0 || len(im.Pix) != 0 {
		t.Error("0x0 image not empty")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	im := MustNew(4, 3, 3)
	im.Set(2, 1, 1, 42)
	if im.At(2, 1, 1) != 42 {
		t.Error("At/Set mismatch")
	}
	g := MustNew(4, 3, 1)
	g.SetGray(3, 2, -7)
	if g.Gray(3, 2) != -7 {
		t.Error("Gray/SetGray mismatch")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustNew(2, 2, 1)
	a.SetGray(0, 0, 5)
	b := a.Clone()
	b.SetGray(0, 0, 9)
	if a.Gray(0, 0) != 5 {
		t.Error("Clone shares storage with original")
	}
	if !a.Equal(a.Clone()) {
		t.Error("Clone not equal to original")
	}
}

func TestCloneInto(t *testing.T) {
	a := MustNew(2, 2, 1)
	a.Fill(3)
	dst := MustNew(2, 2, 1)
	got := a.CloneInto(dst)
	if got != dst {
		t.Error("CloneInto allocated despite matching geometry")
	}
	if !got.Equal(a) {
		t.Error("CloneInto copied wrong data")
	}
	mismatched := MustNew(3, 2, 1)
	got = a.CloneInto(mismatched)
	if got == mismatched {
		t.Error("CloneInto reused mismatched destination")
	}
	if got := a.CloneInto(nil); !got.Equal(a) {
		t.Error("CloneInto(nil) wrong")
	}
}

func TestEqual(t *testing.T) {
	a := MustNew(2, 2, 1)
	if a.Equal(nil) {
		t.Error("Equal(nil) true")
	}
	if a.Equal(MustNew(2, 2, 3)) {
		t.Error("different channels compare equal")
	}
	b := MustNew(2, 2, 1)
	b.SetGray(1, 1, 1)
	if a.Equal(b) {
		t.Error("different pixels compare equal")
	}
}

func TestClamp8(t *testing.T) {
	im := MustNew(3, 1, 1)
	im.Pix[0], im.Pix[1], im.Pix[2] = -5, 128, 999
	im.Clamp8()
	if im.Pix[0] != 0 || im.Pix[1] != 128 || im.Pix[2] != 255 {
		t.Errorf("Clamp8 = %v", im.Pix)
	}
	if clamp8(-1) != 0 || clamp8(256) != 255 || clamp8(7) != 7 {
		t.Error("clamp8 wrong")
	}
}

func TestInBounds(t *testing.T) {
	im := MustNew(4, 3, 1)
	cases := []struct {
		x, y int
		want bool
	}{{0, 0, true}, {3, 2, true}, {4, 0, false}, {0, 3, false}, {-1, 0, false}}
	for _, c := range cases {
		if im.InBounds(c.x, c.y) != c.want {
			t.Errorf("InBounds(%d,%d) != %v", c.x, c.y, c.want)
		}
	}
}

func TestSyntheticGrayDeterministicAndBounded(t *testing.T) {
	a, err := SyntheticGray(64, 48, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := SyntheticGray(64, 48, 11)
	if !a.Equal(b) {
		t.Error("SyntheticGray not deterministic")
	}
	c, _ := SyntheticGray(64, 48, 12)
	if a.Equal(c) {
		t.Error("SyntheticGray ignores seed")
	}
	for i, v := range a.Pix {
		if v < 0 || v > 255 {
			t.Fatalf("pixel %d out of 8-bit range: %d", i, v)
		}
	}
}

func TestSyntheticGrayHasContrast(t *testing.T) {
	im, err := SyntheticGray(128, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := im.Pix[0], im.Pix[0]
	for _, v := range im.Pix {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 100 {
		t.Errorf("synthetic image nearly flat: range [%d,%d]", lo, hi)
	}
}

func TestSyntheticRGBDeterministicAndBounded(t *testing.T) {
	a, err := SyntheticRGB(48, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := SyntheticRGB(48, 32, 5)
	if !a.Equal(b) {
		t.Error("SyntheticRGB not deterministic")
	}
	for _, v := range a.Pix {
		if v < 0 || v > 255 {
			t.Fatalf("RGB pixel out of range: %d", v)
		}
	}
}

func TestSyntheticEmpty(t *testing.T) {
	if _, err := SyntheticGray(0, 16, 1); err != nil {
		t.Errorf("zero-width synthetic rejected: %v", err)
	}
	if _, err := SyntheticRGB(16, 0, 1); err != nil {
		t.Errorf("zero-height synthetic rejected: %v", err)
	}
}

func TestBayerGRBGPattern(t *testing.T) {
	rgb := MustNew(4, 4, 3)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			rgb.Set(x, y, 0, 10) // R
			rgb.Set(x, y, 1, 20) // G
			rgb.Set(x, y, 2, 30) // B
		}
	}
	m, err := BayerGRBG(rgb)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{
		{20, 10, 20, 10},
		{30, 20, 30, 20},
		{20, 10, 20, 10},
		{30, 20, 30, 20},
	}
	for y := range want {
		for x := range want[y] {
			if m.Gray(x, y) != want[y][x] {
				t.Errorf("mosaic(%d,%d) = %d, want %d", x, y, m.Gray(x, y), want[y][x])
			}
		}
	}
	if _, err := BayerGRBG(MustNew(2, 2, 1)); err == nil {
		t.Error("BayerGRBG accepted 1-channel image")
	}
}

func TestBayerChannelGRBG(t *testing.T) {
	if BayerChannelGRBG(0, 0) != 1 || BayerChannelGRBG(1, 0) != 0 ||
		BayerChannelGRBG(0, 1) != 2 || BayerChannelGRBG(1, 1) != 1 {
		t.Error("GRBG layout wrong")
	}
}

func TestPNMRoundTripGray(t *testing.T) {
	im, err := SyntheticGray(33, 17, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePNM(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(im) {
		t.Error("PGM round trip lost data")
	}
}

func TestPNMRoundTripRGB(t *testing.T) {
	im, err := SyntheticRGB(19, 23, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePNM(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(im) {
		t.Error("PPM round trip lost data")
	}
}

func TestPNMEncodeClampsOutOfRange(t *testing.T) {
	im := MustNew(2, 1, 1)
	im.Pix[0], im.Pix[1] = -50, 500
	var buf bytes.Buffer
	if err := EncodePNM(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pix[0] != 0 || got.Pix[1] != 255 {
		t.Errorf("clamping on encode failed: %v", got.Pix)
	}
}

func TestPNMRejectsBadInput(t *testing.T) {
	if err := EncodePNM(&bytes.Buffer{}, MustNew(1, 1, 2)); err == nil {
		t.Error("2-channel PNM encode accepted")
	}
	if _, err := DecodePNM(bytes.NewBufferString("P7\n1 1\n255\nx")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodePNM(bytes.NewBufferString("P5\n2 2\n255\nab")); err == nil {
		t.Error("short pixel data accepted")
	}
	if _, err := DecodePNM(bytes.NewBufferString("P5\n1 1\n65535\n\x00\x00")); err == nil {
		t.Error("16-bit maxval accepted")
	}
}

func TestPNMCommentsSkipped(t *testing.T) {
	im, err := DecodePNM(bytes.NewBufferString("P5 # magic\n# a comment line\n2 1\n# another\n255\nAB"))
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 2 || im.H != 1 || im.Pix[0] != 'A' || im.Pix[1] != 'B' {
		t.Errorf("comment handling wrong: %+v", im)
	}
}

func TestPNMFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.pgm")
	im, err := SyntheticGray(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePNMFile(path, im); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPNMFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(im) {
		t.Error("file round trip lost data")
	}
	if _, err := ReadPNMFile(filepath.Join(dir, "missing.pgm")); err == nil {
		t.Error("missing file read succeeded")
	}
}

// TestPNMRoundTripProperty: any 8-bit image survives encode/decode exactly.
func TestPNMRoundTripProperty(t *testing.T) {
	f := func(rawW, rawH uint8, rgbFlag bool, fill []byte) bool {
		w := int(rawW)%16 + 1
		h := int(rawH)%16 + 1
		c := 1
		if rgbFlag {
			c = 3
		}
		im := MustNew(w, h, c)
		for i := range im.Pix {
			if len(fill) > 0 {
				im.Pix[i] = int32(fill[i%len(fill)])
			}
		}
		var buf bytes.Buffer
		if err := EncodePNM(&buf, im); err != nil {
			return false
		}
		got, err := DecodePNM(&buf)
		return err == nil && got.Equal(im)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewRejectsOverflowGeometry(t *testing.T) {
	if _, err := New(99999999, 99999999, 1); err == nil {
		t.Error("overflowing geometry accepted")
	}
	if _, err := New(1<<15, 1<<15, 4); err == nil {
		t.Error("over-limit geometry accepted")
	}
}

func TestDiffImage(t *testing.T) {
	ref := MustNew(2, 1, 3)
	approx := MustNew(2, 1, 3)
	ref.Pix = []int32{10, 20, 30, 0, 0, 0}
	approx.Pix = []int32{10, 25, 28, 0, 0, 100}
	d, err := DiffImage(ref, approx, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Pixel 0: max channel error 5 -> 50; pixel 1: 100 -> clamped 255.
	if d.Pix[0] != 50 || d.Pix[1] != 255 {
		t.Errorf("diff = %v", d.Pix)
	}
	if _, err := DiffImage(ref, MustNew(3, 1, 3), 1); err == nil {
		t.Error("geometry mismatch accepted")
	}
	if _, err := DiffImage(ref, approx, 0); err == nil {
		t.Error("zero gain accepted")
	}
	if _, err := DiffImage(nil, approx, 1); err == nil {
		t.Error("nil ref accepted")
	}
	same, err := DiffImage(ref, ref, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range same.Pix {
		if v != 0 {
			t.Error("self-diff nonzero")
		}
	}
}
