// Package golden pins the deterministic outputs of every benchmark
// application with content hashes: for a fixed synthetic input and
// configuration, both the precise baseline and the automaton's final
// snapshot must reproduce bit-for-bit across refactorings. An intentional
// algorithm change must update these constants deliberately.
package golden

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/debayer"
	"anytime/internal/apps/dwt53"
	"anytime/internal/apps/histeq"
	"anytime/internal/apps/kmeans"
	"anytime/internal/core"
	"anytime/internal/perm"
	"anytime/internal/pix"
)

func hashImage(im *pix.Image) string {
	h := sha256.New()
	buf := make([]byte, 4)
	for _, v := range im.Pix {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func finalOf(t *testing.T, a *core.Automaton, out *core.Buffer[*pix.Image]) *pix.Image {
	t.Helper()
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	snap, ok := out.Latest()
	if !ok || !snap.Final {
		t.Fatal("no final snapshot")
	}
	return snap.Value
}

// The recorded digests. Regenerate by running the tests with -run Golden
// and copying the reported values after a deliberate behavioral change.
const (
	goldenConv2D  = "3e041fa0334ef186e41dce2ad30c666a0c1cf134e1dff331b6b635bf8518818d"
	goldenHisteq  = "20a8a861b43b10bc1e8079781d8a7f415d2e03cc392b65e4a5ababa15e1dcc50"
	goldenDWT53   = "76baa7e805cb28c2a4a053b1e799afb5c91e0c1188f56d8d6cf3fc866e72c81a"
	goldenDebayer = "4f3b48678ffd14d5cc67e21d680c5474b7e66b78240d42a1d9282509a5067552"
	goldenKmeans  = "1d4a4a8f835a51bb9b64864b200635aaa0fab1faa57e35e7df1d98132b7f723f"
)

func check(t *testing.T, name, want string, precise, automaton *pix.Image) {
	t.Helper()
	if !precise.Equal(automaton) {
		t.Fatalf("%s: automaton final differs from precise baseline", name)
	}
	got := hashImage(precise)
	if got != want {
		t.Errorf("%s: golden digest changed:\n  got  %s\n  want %s\n(update the constant if the change is deliberate)", name, got, want)
	}
}

func TestGoldenConv2D(t *testing.T) {
	in, err := pix.SyntheticGray(96, 96, 7)
	if err != nil {
		t.Fatal(err)
	}
	precise, err := conv2d.Precise(in, conv2d.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := conv2d.New(in, conv2d.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "conv2d", goldenConv2D, precise, finalOf(t, run.Automaton, run.Out))
}

func TestGoldenHisteq(t *testing.T) {
	in, err := pix.SyntheticGray(96, 96, 7)
	if err != nil {
		t.Fatal(err)
	}
	precise, err := histeq.Precise(in, histeq.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := histeq.New(in, histeq.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "histeq", goldenHisteq, precise, finalOf(t, run.Automaton, run.Out))
}

// TestHisteqFirstRoundEstimate gates the accuracy of histeq's lattice input
// sampling: on each golden input, the normalized L1 error of the first
// round's histogram against the exact one may exceed that of the paper's
// pseudo-random (LFSR) sample of the same size by at most 0.01.
func TestHisteqFirstRoundEstimate(t *testing.T) {
	for _, g := range []struct {
		w, h int
		seed uint64
	}{{96, 96, 7}, {128, 128, 5}, {48, 48, 3}} {
		in, err := pix.SyntheticGray(g.w, g.h, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		run, err := histeq.New(in, histeq.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var first *histeq.Hist
		run.HistBuf.OnPublish(func(s core.Snapshot[*histeq.Hist]) {
			if first == nil {
				first = s.Value
			}
		})
		finalOf(t, run.Automaton, run.Out)
		ord, err := perm.PseudoRandom(in.Pixels(), 1)
		if err != nil {
			t.Fatal(err)
		}
		var exact, lfsr [histeq.Bins]int64
		for i, v := range in.Pix {
			exact[v]++
			if i < first.Processed {
				lfsr[in.Pix[ord.At(i)]]++
			}
		}
		lat, rnd := l1(first.Counts, exact), l1(lfsr, exact)
		t.Logf("%dx%d seed %d, %d samples: L1 lattice %.4f, LFSR %.4f", g.w, g.h, g.seed, first.Processed, lat, rnd)
		if lat > rnd+0.01 {
			t.Errorf("%dx%d: lattice first-round L1 error %.4f exceeds the LFSR's %.4f by more than 0.01", g.w, g.h, lat, rnd)
		}
	}
}

// l1 is the L1 distance between the normalized histograms a and b.
func l1(a, b [histeq.Bins]int64) float64 {
	var na, nb int64
	for v := range a {
		na, nb = na+a[v], nb+b[v]
	}
	var d float64
	for v := range a {
		d += math.Abs(float64(a[v])/float64(na) - float64(b[v])/float64(nb))
	}
	return d
}

func TestGoldenDWT53(t *testing.T) {
	in, err := pix.SyntheticGray(96, 96, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The lossless transform reconstructs the input, so the interesting
	// golden is the coefficient plane of the precise forward transform.
	coef, err := dwt53.Forward(in, dwt53.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := dwt53.New(in, dwt53.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := finalOf(t, run.Automaton, run.Out)
	if !out.Equal(in) {
		t.Fatal("dwt53 final reconstruction differs from input")
	}
	got := hashImage(coef)
	if got != goldenDWT53 {
		t.Errorf("dwt53 coefficient digest changed:\n  got  %s\n  want %s", got, goldenDWT53)
	}
}

func TestGoldenDebayer(t *testing.T) {
	rgb, err := pix.SyntheticRGB(96, 96, 7)
	if err != nil {
		t.Fatal(err)
	}
	in, err := pix.BayerGRBG(rgb)
	if err != nil {
		t.Fatal(err)
	}
	precise, err := debayer.Precise(in, debayer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := debayer.New(in, debayer.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "debayer", goldenDebayer, precise, finalOf(t, run.Automaton, run.Out))
}

func TestGoldenKmeans(t *testing.T) {
	in, err := pix.SyntheticRGB(96, 96, 7)
	if err != nil {
		t.Fatal(err)
	}
	precise, err := kmeans.Precise(in, kmeans.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := kmeans.New(in, kmeans.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "kmeans", goldenKmeans, precise, finalOf(t, run.Automaton, run.Out))
}
