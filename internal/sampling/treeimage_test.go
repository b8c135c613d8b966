package sampling

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
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
	policy      core.PublishPolicy
	granularity int
}

type treeVersion struct {
	version   core.Version
	final     bool
	processed int
	img       *pix.Image // the published image itself, kept past the run
	sum       uint64     // img's checksum when it was published
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
	ti, err := NewTreeImage(f.a, "tree", cfg.w, cfg.h, cfg.c)
	if err != nil {
		t.Fatal(err)
	}
	f.t = ti
	processed := 0
	ti.OnSnapshot = func(p int, _ *pix.Image) { processed = p }
	ti.Out.OnPublish(func(s core.Snapshot[*pix.Image]) {
		f.versions = append(f.versions, treeVersion{s.Version, s.Final, processed, s.Value, pixSum(s.Value)})
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
		}, core.RoundConfig{Granularity: cfg.granularity, Workers: cfg.workers, Policy: cfg.policy}, markFinal)
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

// pixSum is an FNV-1a checksum of im's samples.
func pixSum(im *pix.Image) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, im.Pix)
	return h.Sum64()
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

// eachTreeConfig runs fn under both publish policies (mode0 every round,
// mode1 on demand; the fixture's observer is standing demand, so both
// publish every round) × W ∈ {1,2,3} × both granularities.
func eachTreeConfig(t *testing.T, fn func(t *testing.T, cfg treeConfig)) {
	for _, policy := range []core.PublishPolicy{core.PublishEveryRound, core.PublishOnDemand} {
		for workers := 1; workers <= 3; workers++ {
			t.Run(fmt.Sprintf("mode%d/w%d", policy, workers), func(t *testing.T) {
				for _, granularity := range []int{200, 40} {
					t.Run(fmt.Sprintf("g%d", granularity), func(t *testing.T) {
						fn(t, treeConfig{treeW, treeH, treeC, workers, policy, granularity})
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
				cfg := treeConfig{g[0], g[1], 1, 2, core.PublishEveryRound, granularity}
				f := newTreeFixture(t, cfg, true)
				f.checkCold(t, f.run(t), true)
			})
		}
	}
}

// TestTreeImageResetAfterInterrupt: a run cancelled after its first version,
// then Reset, reruns as if the first had never happened. Every version the
// cold run published is kept throughout and must still match its
// publish-time checksum at the end: a published image is never written
// again, not by a later version and not by a later run — the contract the
// daemon's snapshot cache relies on when it holds a version past its
// request.
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
		for _, v := range cold {
			if pixSum(v.img) != v.sum {
				t.Fatalf("cold version %d was written after it was published", v.version)
			}
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

// TestTreeImageVisitsRoundsInRasterBands: each round of the visit order
// holds the tree order's round of positions in ascending pixel index, and
// under W ∈ {1,2,3} the workers' spans of a round are disjoint raster bands
// of it — each span lies in one round, and a worker's pixels all precede
// the next worker's.
func TestTreeImageVisitsRoundsInRasterBands(t *testing.T) {
	testgate.Goroutines(t)
	tree, err := perm.Tree2D(treeH, treeW)
	if err != nil {
		t.Fatal(err)
	}
	n := tree.Len()
	type span struct{ worker, lo, hi, first, last int }
	for workers := 1; workers <= 3; workers++ {
		for _, g := range []int{200, 40, 1, n} {
			t.Run(fmt.Sprintf("w%d/g%d", workers, g), func(t *testing.T) {
				a := core.New()
				ti, err := NewTreeImage(a, "tree", treeW, treeH, 1)
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				var spans []span
				err = a.AddStage("bands", func(c *core.Context) error {
					return ti.Pass(c, func(worker, lo, hi int) error {
						s := span{worker, lo, hi, ti.At(lo), ti.At(hi - 1)}
						for pos := lo; pos < hi; pos++ {
							ti.Mark(ti.At(pos))
						}
						mu.Lock()
						spans = append(spans, s)
						mu.Unlock()
						return nil
					}, core.RoundConfig{Granularity: g, Workers: workers}, true)
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := a.Wait(); err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < n; lo += g {
					hi := min(lo+g, n)
					want := make([]int, 0, hi-lo)
					got := make([]int, 0, hi-lo)
					for pos := lo; pos < hi; pos++ {
						want = append(want, tree.At(pos))
						got = append(got, ti.At(pos))
					}
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("round [%d, %d) visits %v, want the tree round ascending %v", lo, hi, got, want)
					}
				}
				slices.SortFunc(spans, func(a, b span) int { return a.lo - b.lo })
				for i, s := range spans {
					if s.lo/g != (s.hi-1)/g {
						t.Errorf("span [%d, %d) crosses a round boundary", s.lo, s.hi)
					}
					if i == 0 {
						continue
					}
					prev := spans[i-1]
					if prev.hi != s.lo {
						t.Fatalf("spans [%d, %d) and [%d, %d) leave a gap or overlap", prev.lo, prev.hi, s.lo, s.hi)
					}
					if same := prev.lo/g == s.lo/g; same && (prev.last >= s.first || prev.worker >= s.worker) {
						t.Errorf("worker %d's band [%d, %d] and worker %d's [%d, %d] interleave", prev.worker, prev.first, prev.last, s.worker, s.first, s.last)
					}
				}
				if len(spans) == 0 || spans[0].lo != 0 || spans[len(spans)-1].hi != n {
					t.Error("spans do not cover the visit order")
				}
			})
		}
	}
}

// TestTreeImageRepaint: a repaint before a pass has computed every pixel
// is refused; after one, a repaint's rounds publish Working as the span left
// it, and a repaint of no updates publishes it unchanged, final.
func TestTreeImageRepaint(t *testing.T) {
	testgate.Goroutines(t)
	round := core.RoundConfig{Granularity: 200, Workers: 2}
	run := func(stage func(c *core.Context, ti *TreeImage) error) ([]core.Snapshot[*pix.Image], error) {
		a := core.New()
		ti, err := NewTreeImage(a, "tree", treeW, treeH, 1)
		if err != nil {
			t.Fatal(err)
		}
		var vs []core.Snapshot[*pix.Image]
		ti.Out.OnPublish(func(s core.Snapshot[*pix.Image]) { vs = append(vs, s) })
		if err := a.AddStage("repaint", func(c *core.Context) error { return stage(c, ti) }); err != nil {
			t.Fatal(err)
		}
		if err := a.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		return vs, a.Wait()
	}
	noop := func(worker, lo, hi int) error { return nil }
	if _, err := run(func(c *core.Context, ti *TreeImage) error {
		return ti.Repaint(c, 0, noop, round, true)
	}); err == nil || !strings.Contains(err.Error(), "tree: repaint before every pixel is computed") {
		t.Fatalf("repaint before a pass: %v", err)
	}

	n := treeW * treeH
	vs, err := run(func(c *core.Context, ti *TreeImage) error {
		if err := ti.Pass(c, func(worker, lo, hi int) error {
			for pos := lo; pos < hi; pos++ {
				d := ti.At(pos)
				ti.Working.Pix[d] = 1
				ti.Mark(d)
			}
			return nil
		}, round, false); err != nil {
			return err
		}
		// 300 updates, each painting pixel n-1-u with 2: two rounds.
		if err := ti.Repaint(c, 300, func(worker, lo, hi int) error {
			for u := lo; u < hi; u++ {
				ti.Working.Pix[n-1-u] = 2
			}
			return nil
		}, round, false); err != nil {
			return err
		}
		return ti.Repaint(c, 0, noop, round, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	pass := (n + round.Granularity - 1) / round.Granularity
	if len(vs) != pass+3 {
		t.Fatalf("%d versions, want %d pass + 2 repaint + 1 final", len(vs), pass)
	}
	for i, painted := range []int{200, 300, 300} {
		v := vs[pass+i]
		want := pix.MustNew(treeW, treeH, 1)
		want.Fill(1)
		for u := range painted {
			want.Pix[n-1-u] = 2
		}
		if !v.Value.Equal(want) || v.Final != (i == 2) {
			t.Errorf("repaint version %d (final %v) is not the pass with %d pixels repainted", v.Version, v.Final, painted)
		}
	}
}
