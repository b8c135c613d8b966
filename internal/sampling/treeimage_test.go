package sampling

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"anytime/internal/core"
	"anytime/internal/perm"
	"anytime/internal/pix"
	"anytime/internal/testgate"
)

// The fixture is a 45×37 RGB stage (four 32×32 tiles, neither side a power
// of two) whose kernel is the identity: pixel d of Working becomes pixel d
// of a fixed reference image.
const treeW, treeH, treeC = 45, 37, 3

// treeConfig is one fixture configuration. Of the 45×37 image's 1665
// pixels, rounds of 200 bring each version up to date in one raster sweep;
// rounds of 40 do so for the coarse levels and spread the 2×2 level block
// by block.
type treeConfig struct {
	w, h, c     int
	workers     int
	mode        pix.SnapshotMode
	granularity int
}

type treeVersion struct {
	version   core.Version
	final     bool
	processed int
	img       *pix.Image
}

// treeFixture is one automaton with one TreeImage stage, recording every
// version it publishes. OnSnapshot supplies the processed count a
// core.Snapshot does not carry.
type treeFixture struct {
	a        *core.Automaton
	t        *TreeImage
	ref      *pix.Image
	ord      perm.Order // the oracle's own copy of the visit order
	versions []treeVersion
	stopAt   core.Version       // cancel the run when this version publishes
	cancel   context.CancelFunc // of the run in flight
}

func newTreeFixture(t *testing.T, cfg treeConfig, markFinal bool) *treeFixture {
	t.Helper()
	ord, err := perm.Tree2D(cfg.h, cfg.w)
	if err != nil {
		t.Fatal(err)
	}
	f := &treeFixture{a: core.New(), ref: pix.MustNew(cfg.w, cfg.h, cfg.c), ord: ord}
	for i := range f.ref.Pix {
		f.ref.Pix[i] = int32(i*7%251 + 1)
	}
	ti, err := NewTreeImage(f.a, "tree", cfg.w, cfg.h, cfg.c, cfg.mode)
	if err != nil {
		t.Fatal(err)
	}
	f.t = ti
	processed := 0
	ti.OnSnapshot = func(p int, _ *pix.Image) { processed = p }
	ti.Out.OnPublish(func(s core.Snapshot[*pix.Image]) {
		// Clone: under SnapshotTiles the ring reuses s.Value's storage.
		f.versions = append(f.versions, treeVersion{s.Version, s.Final, processed, s.Value.Clone()})
		if s.Version == f.stopAt {
			f.cancel()
		}
	})
	err = f.a.AddStage("identity", func(c *core.Context) error {
		return ti.Pass(c, func(worker, lo, hi int) error {
			for pos := lo; pos < hi; pos++ {
				d := ti.At(pos)
				copy(ti.Working.Pix[d*cfg.c:d*cfg.c+cfg.c], f.ref.Pix[d*cfg.c:d*cfg.c+cfg.c])
				ti.Mark(d)
			}
			return nil
		}, core.RoundConfig{Granularity: cfg.granularity, Workers: cfg.workers}, markFinal)
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// run starts the automaton, waits for it, and returns the versions this run
// published.
func (f *treeFixture) run(t *testing.T) []treeVersion {
	t.Helper()
	f.versions = nil
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.cancel = cancel
	if err := f.a.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.a.Wait(); err != nil && !errors.Is(err, core.ErrStopped) {
		t.Fatal(err)
	}
	return f.versions
}

// holdFilled is the oracle: the reference with the first processed tree
// positions computed and every other pixel at its nearest computed
// ancestor's value.
func (f *treeFixture) holdFilled(t *testing.T, processed int) (*pix.Image, []bool) {
	t.Helper()
	mask := make([]bool, f.ref.Pixels())
	for pos := 0; pos < processed; pos++ {
		mask[f.ord.At(pos)] = true
	}
	want, err := pix.HoldFill(f.ref, mask)
	if err != nil {
		t.Fatal(err)
	}
	return want, mask
}

// checkCold requires vs to be a complete cold pass: numbered from 1, every
// version the hold-filled prefix of its processed count, the last covering
// every pixel and Final exactly when markFinal.
func (f *treeFixture) checkCold(t *testing.T, vs []treeVersion, markFinal bool) {
	t.Helper()
	if len(vs) == 0 {
		t.Fatal("no version published")
	}
	for i, v := range vs {
		if v.version != core.Version(i+1) {
			t.Errorf("publish %d has version %d", i, v.version)
		}
		if want, _ := f.holdFilled(t, v.processed); !v.img.Equal(want) {
			t.Errorf("version %d (processed %d) is not the hold-filled prefix", v.version, v.processed)
		}
		if last := i == len(vs)-1; v.final != (last && markFinal) {
			t.Errorf("version %d: final = %v", v.version, v.final)
		}
	}
	if last := vs[len(vs)-1]; last.processed != f.ref.Pixels() || !last.img.Equal(f.ref) {
		t.Errorf("last version covers %d of %d pixels", last.processed, f.ref.Pixels())
	}
}

func sameVersions(a, b []treeVersion) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].version != b[i].version || a[i].final != b[i].final ||
			a[i].processed != b[i].processed || !a[i].img.Equal(b[i].img) {
			return false
		}
	}
	return true
}

// eachTreeConfig runs fn under W ∈ {1,2,3} × both snapshot modes × both
// granularities.
func eachTreeConfig(t *testing.T, fn func(t *testing.T, cfg treeConfig)) {
	for _, mode := range []pix.SnapshotMode{pix.SnapshotClone, pix.SnapshotTiles} {
		for workers := 1; workers <= 3; workers++ {
			t.Run(fmt.Sprintf("mode%d/w%d", mode, workers), func(t *testing.T) {
				for _, granularity := range []int{200, 40} {
					t.Run(fmt.Sprintf("g%d", granularity), func(t *testing.T) {
						fn(t, treeConfig{treeW, treeH, treeC, workers, mode, granularity})
					})
				}
			})
		}
	}
}

func TestTreeImagePassPublishesHoldFilledPrefixes(t *testing.T) {
	testgate.Goroutines(t)
	eachTreeConfig(t, func(t *testing.T, cfg treeConfig) {
		for _, markFinal := range []bool{true, false} {
			f := newTreeFixture(t, cfg, markFinal)
			f.checkCold(t, f.run(t), markFinal)
		}
	})
}

// TestTreeImageGeometries: the oracle holds on degenerate and lopsided
// images, whose blocks are clipped and whose levels interleave in the tree
// order, with rounds of one pixel (updates spread block by block, the
// coarsest swept) and of a quarter image (swept).
func TestTreeImageGeometries(t *testing.T) {
	testgate.Goroutines(t)
	for _, g := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 3}, {17, 5}, {3, 40}} {
		for _, granularity := range []int{1, max(g[0]*g[1]/4, 1)} {
			t.Run(fmt.Sprintf("%dx%d/g%d", g[0], g[1], granularity), func(t *testing.T) {
				cfg := treeConfig{g[0], g[1], 1, 2, pix.SnapshotClone, granularity}
				f := newTreeFixture(t, cfg, true)
				f.checkCold(t, f.run(t), true)
			})
		}
	}
}

// TestTreeImageResetAfterInterrupt: a run cancelled after its first version,
// then Reset, reruns as if the first had never happened.
func TestTreeImageResetAfterInterrupt(t *testing.T) {
	testgate.Goroutines(t)
	eachTreeConfig(t, func(t *testing.T, cfg treeConfig) {
		f := newTreeFixture(t, cfg, true)
		cold := f.run(t)
		f.checkCold(t, cold, true)
		if err := f.a.Reset(); err != nil {
			t.Fatal(err)
		}

		f.stopAt = 1
		cut := f.run(t)
		f.stopAt = 0
		if len(cut) == 0 || len(cut) >= len(cold) || cut[len(cut)-1].final {
			t.Fatalf("interrupted run published %d of %d versions", len(cut), len(cold))
		}
		if err := f.a.Reset(); err != nil {
			t.Fatal(err)
		}
		if _, ok := f.t.Out.Latest(); ok {
			t.Error("Reset left a snapshot in Out")
		}
		if rerun := f.run(t); !sameVersions(rerun, cold) {
			t.Error("rerun after interrupt + Reset differs from the cold run")
		}
	})
}

// TestTreeImageSeed: a seeded run starts at the cached frame and the seed's
// version; computed pixels replace it, and pixels of stale tiles hold-fill
// instead of showing the cache.
func TestTreeImageSeed(t *testing.T) {
	testgate.Goroutines(t)
	cached := pix.MustNew(treeW, treeH, treeC)
	cached.Fill(200)
	grid := pix.NewTileGrid(treeW, treeH, treeC)
	const seedVersion = 7
	eachTreeConfig(t, func(t *testing.T, cfg treeConfig) {
		stale := pix.NewDirtyTiles(grid)
		stale.Mark(1)
		stale.Mark(2)
		for name, seed := range map[string]any{
			"image": cached,
			"frame": &pix.SeedFrame{Image: cached, Stale: stale},
		} {
			f := newTreeFixture(t, cfg, true)
			if err := f.a.SeedFrom(seed, seedVersion); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if s, ok := f.t.Out.Latest(); !ok || s.Version != seedVersion || s.Final || !s.Value.Equal(cached) {
				t.Fatalf("%s: seeded buffer holds %+v", name, s)
			}
			vs := f.run(t)
			for i, v := range vs {
				if v.version != core.Version(seedVersion+1+i) {
					t.Errorf("%s: publish %d has version %d", name, i, v.version)
				}
				// Trusted tiles: the cache, overwritten by what is computed.
				want, mask := f.holdFilled(t, v.processed)
				for p, done := range mask {
					if !done && !(name == "frame" && stale.Has(grid.TileOf(p%treeW, p/treeW))) {
						copy(want.Pix[p*treeC:p*treeC+treeC], cached.Pix[p*treeC:p*treeC+treeC])
					}
				}
				if !v.img.Equal(want) {
					t.Errorf("%s: version %d (processed %d) differs", name, v.version, v.processed)
				}
			}
			if last := vs[len(vs)-1]; !last.final || !last.img.Equal(f.ref) {
				t.Errorf("%s: seeded run did not end on the reference", name)
			}
		}
	})
}

// TestTreeImageSeedRefused: a payload of the wrong geometry or type is
// refused naming the buffer, and the cold run that follows is the cold run.
func TestTreeImageSeedRefused(t *testing.T) {
	testgate.Goroutines(t)
	eachTreeConfig(t, func(t *testing.T, cfg treeConfig) {
		f := newTreeFixture(t, cfg, true)
		cold := f.run(t)
		for _, seed := range []any{
			pix.MustNew(treeW+1, treeH, treeC),
			pix.MustNew(treeW, treeH, 1),
			&pix.SeedFrame{},
			&pix.SeedFrame{Image: f.ref, Stale: pix.NewDirtyTiles(pix.NewTileGrid(treeW, treeH, 1))},
			"not an image",
		} {
			if err := f.a.Reset(); err != nil {
				t.Fatal(err)
			}
			err := f.a.SeedFrom(seed, 7)
			if err == nil || !strings.HasPrefix(err.Error(), "tree: ") {
				t.Fatalf("seed %T: error %v does not lead with the buffer name", seed, err)
			}
			if _, ok := f.t.Out.Latest(); ok {
				t.Errorf("seed %T: refused seed reached Out", seed)
			}
			if !sameVersions(f.run(t), cold) {
				t.Errorf("seed %T: cold run after the refusal differs", seed)
			}
		}
	})
}
