package histeq

import (
	"context"
	"fmt"
	"math/bits"
	"testing"

	"anytime/internal/core"
	"anytime/internal/perm"
	"anytime/internal/pix"
	"anytime/internal/sampling"
	"anytime/internal/testgate"
)

// lutOf is the equalization table of the histogram of in's first n pixels.
func lutOf(in *pix.Image, n int) *LUT {
	var h Hist
	for _, v := range in.Pix[:n] {
		h.Counts[binOf(v)]++
	}
	h.Processed = n
	return buildLUT(buildCDF(&h))
}

// painted is in with lut applied to every pixel.
func painted(in *pix.Image, lut *LUT) *pix.Image {
	out := pix.MustNew(in.W, in.H, 1)
	for i, v := range in.Pix {
		out.Pix[i] = lut.Map[binOf(v)]
	}
	return out
}

type applyVersion struct {
	version   core.Version
	final     bool
	processed int
	img       *pix.Image
}

// applyFixture is the apply stage on its own, fed a scripted sequence of
// LUTs, so the versions it must publish are known exactly.
type applyFixture struct {
	a        *core.Automaton
	in       *pix.Image
	luts     []*LUT
	g        int
	versions []applyVersion
}

func newApplyFixture(t *testing.T, in *pix.Image, luts []*LUT, g, workers int) *applyFixture {
	t.Helper()
	f := &applyFixture{a: core.New(), in: in, luts: luts, g: g}
	ti, err := sampling.NewTreeImage(f.a, "histeq", in.W, in.H, 1)
	if err != nil {
		t.Fatal(err)
	}
	processed := 0
	ti.OnSnapshot = func(n int, _ *pix.Image) { processed = n }
	ti.Out.OnPublish(func(s core.Snapshot[*pix.Image]) {
		f.versions = append(f.versions, applyVersion{s.Version, s.Final, processed, s.Value})
	})
	p := newPainter(ti, in, core.RoundConfig{Granularity: g, Workers: workers})
	err = f.a.AddStage("apply", func(c *core.Context) error {
		var applied *LUT
		for i, lut := range luts {
			if err := p.apply(c, applied, lut, i == len(luts)-1); err != nil {
				return err
			}
			applied = lut
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *applyFixture) run(t *testing.T) []applyVersion {
	t.Helper()
	f.versions = nil
	if err := f.a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.a.Wait(); err != nil {
		t.Fatal(err)
	}
	return f.versions
}

// want is the oracle: the images the script must publish, in order. The
// first LUT is a tree-sampled pass, one version per round of g rounded down
// to a power of two (the input's sides are powers of two), whose pixels not
// yet computed hold-fill — or, in a run seeded with seed, show it. Each
// later LUT repaints the pixels of the bins whose entry differs from the
// last applied LUT, bin by ascending bin and raster order within a bin, one
// version per round of g of those pixels; an unchanged LUT publishes
// nothing, unless it is the final one, which publishes the image unchanged.
func (f *applyFixture) want(t *testing.T, seed *pix.Image) []*pix.Image {
	t.Helper()
	n := f.in.Pixels()
	ord, err := perm.Tree2D(f.in.H, f.in.W)
	if err != nil {
		t.Fatal(err)
	}
	cur := painted(f.in, f.luts[0])
	mask := make([]bool, n)
	var out []*pix.Image
	for done := 0; done < n; {
		for end := min(done+1<<(bits.Len(uint(f.g))-1), n); done < end; done++ {
			mask[ord.At(done)] = true
		}
		var img *pix.Image
		if seed == nil {
			if img, err = pix.HoldFill(cur, mask); err != nil {
				t.Fatal(err)
			}
		} else {
			img = seed.Clone()
			for i, in := range mask {
				if in {
					img.Pix[i] = cur.Pix[i]
				}
			}
		}
		out = append(out, img)
	}
	applied := f.luts[0]
	for j, lut := range f.luts[1:] {
		var updates []int
		for b := range Bins {
			if lut.Map[b] == applied.Map[b] {
				continue
			}
			for i, v := range f.in.Pix {
				if binOf(v) == b {
					updates = append(updates, i)
				}
			}
		}
		for r := 0; r < len(updates); r += f.g {
			for _, i := range updates[r:min(r+f.g, len(updates))] {
				cur.Pix[i] = lut.Map[binOf(f.in.Pix[i])]
			}
			out = append(out, cur.Clone())
		}
		if len(updates) == 0 && j == len(f.luts)-2 {
			out = append(out, cur.Clone())
		}
		applied = lut
	}
	return out
}

// check requires vs to be exactly the oracle's images, numbered on from
// first, the last one alone final.
func (f *applyFixture) check(t *testing.T, vs []applyVersion, want []*pix.Image, first core.Version) {
	t.Helper()
	if len(vs) != len(want) {
		t.Fatalf("%d versions published, want %d", len(vs), len(want))
	}
	for i, v := range vs {
		if v.version != first+core.Version(i) {
			t.Errorf("publish %d has version %d", i, v.version)
		}
		if v.final != (i == len(vs)-1) {
			t.Errorf("version %d: final = %v", v.version, v.final)
		}
		if !v.img.Equal(want[i]) {
			t.Errorf("version %d (processed %d) differs from the oracle", v.version, v.processed)
		}
	}
}

// TestApplyRepaintsChangedBins pins the apply stage version by version on a
// script of five LUTs: a coarse first estimate, a finer one, the finer one
// again (no version), the exact table, and the exact table again as the
// final (one unchanged Final version). Each of three rounds sizes — a
// quarter image, 97 pixels (cutting inside buckets), the whole image — runs
// under W ∈ {1,2,3} cold, again after Reset, and seeded.
func TestApplyRepaintsChangedBins(t *testing.T) {
	testgate.Goroutines(t)
	in := testImage(t, 64, 64)
	n := in.Pixels()
	coarse, fine, exact := lutOf(in, n/10), lutOf(in, n/2), lutOf(in, n)
	fineAgain, exactAgain := *fine, *exact
	script := []*LUT{coarse, fine, &fineAgain, exact, &exactAgain}

	// The script must exercise what it claims: each repaint changes some
	// but not all occupied bins, and the exact table is Precise's.
	occupied := 0
	var bins [Bins]bool
	for _, v := range in.Pix {
		bins[binOf(v)] = true
	}
	for _, on := range bins {
		if on {
			occupied++
		}
	}
	for _, pair := range [][2]*LUT{{coarse, fine}, {fine, exact}} {
		changed := 0
		for b, on := range bins {
			if on && pair[0].Map[b] != pair[1].Map[b] {
				changed++
			}
		}
		if changed == 0 || changed == occupied {
			t.Fatalf("script LUTs change %d of %d occupied bins", changed, occupied)
		}
	}
	precise, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !painted(in, exact).Equal(precise) {
		t.Fatal("the exact table does not paint Precise")
	}

	seed := pix.MustNew(in.W, in.H, 1)
	seed.Fill(200)
	const seedVersion = 7
	for _, g := range []int{n / 4, 97, n} {
		for workers := 1; workers <= 3; workers++ {
			t.Run(fmt.Sprintf("g%d/w%d", g, workers), func(t *testing.T) {
				f := newApplyFixture(t, in, script, g, workers)
				cold := f.want(t, nil)
				vs := f.run(t)
				f.check(t, vs, cold, 1)
				if last := vs[len(vs)-1].img; !last.Equal(precise) {
					t.Error("final differs from Precise")
				}
				if err := f.a.Reset(); err != nil {
					t.Fatal(err)
				}
				f.check(t, f.run(t), cold, 1)

				if err := f.a.Reset(); err != nil {
					t.Fatal(err)
				}
				if err := f.a.SeedFrom(seed, seedVersion); err != nil {
					t.Fatal(err)
				}
				f.check(t, f.run(t), f.want(t, seed), seedVersion+1)
			})
		}
	}
}

// TestPipelinePublishesConsumedLUTs runs the whole pipeline with one round
// per pass, so every version is a complete image: each must be some
// published LUT applied to every pixel, the LUTs in publish order, and the
// final must be Precise — cold, on a reused automaton, and seeded.
func TestPipelinePublishesConsumedLUTs(t *testing.T) {
	testgate.Goroutines(t)
	in := testImage(t, 64, 64)
	precise, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	seed := pix.MustNew(in.W, in.H, 1)
	seed.Fill(3)
	for workers := 1; workers <= 3; workers++ {
		run, err := New(in, Config{Workers: workers, ApplyGranularity: in.Pixels()})
		if err != nil {
			t.Fatal(err)
		}
		// Each slice is appended on one stage goroutine and read after Wait.
		var luts []*LUT
		var outs []core.Snapshot[*pix.Image]
		run.LUTBuf.OnPublish(func(s core.Snapshot[*LUT]) { luts = append(luts, s.Value) })
		run.Out.OnPublish(func(s core.Snapshot[*pix.Image]) { outs = append(outs, s) })
		for leg, seeded := range []bool{false, false, true} {
			luts, outs = nil, nil
			if seeded {
				if err := run.Automaton.SeedFrom(seed, 5); err != nil {
					t.Fatal(err)
				}
			}
			if err := run.Automaton.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := run.Automaton.Wait(); err != nil {
				t.Fatal(err)
			}
			k := 0
			for _, s := range outs {
				for k < len(luts) && !s.Value.Equal(painted(in, luts[k])) {
					k++
				}
				if k == len(luts) {
					t.Fatalf("w%d leg %d: version %d is no published LUT, in order, applied to every pixel", workers, leg, s.Version)
				}
			}
			if last := outs[len(outs)-1]; !last.Final || !last.Value.Equal(precise) {
				t.Errorf("w%d leg %d: run did not end on Precise", workers, leg)
			}
			if err := run.Automaton.Reset(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
