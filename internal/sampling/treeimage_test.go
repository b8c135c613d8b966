package sampling

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"runtime"
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

// treeConfig is one fixture configuration. The 45×37 image's 1665 pixels
// sit in a 64×64 superset: a granularity of 200 runs rounds of 128 counter
// positions, lattices 4×8 apart, and one of 40 rounds of 32, 8×16 apart.
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
		return ti.Pass(c, func(worker, x0, y0, sx, sy, rows int) error {
			for y := y0; y < y0+rows*sy; y += sy {
				for x := x0; x < cfg.w; x += sx {
					d := (y*cfg.w + x) * cfg.c
					copy(ti.Working.Pix[d:d+cfg.c], f.ref.Pix[d:d+cfg.c])
				}
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
// images, whose blocks are clipped, whose levels interleave in the tree
// order and whose lattices are far wider than tall or the reverse, with
// rounds of one pixel and of a quarter image.
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

// TestTreeImageEveryGranularity: on the 45×37 fixture, whose 64×64
// superset clips every round, the oracle holds at every power-of-two round
// size from 4 pixels (TestTreeImageGeometries takes 1) to the whole
// superset, under one worker or three, and at sizes that round down to one
// of them, under two.
func TestTreeImageEveryGranularity(t *testing.T) {
	testgate.Goroutines(t)
	for g, workers := 4, 1; g <= 64*64; g, workers = 2*g, 4-workers {
		for _, c := range [][2]int{{g, workers}, {3*g - 1, 2}} {
			t.Run(fmt.Sprintf("g%d/w%d", c[0], c[1]), func(t *testing.T) {
				f := newTreeFixture(t, treeConfig{treeW, treeH, treeC, c[1], core.PublishEveryRound, c[0]}, true)
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
// version; computed pixels replace it, and nothing hold-fills, so every
// pixel not yet computed shows the cache.
func TestTreeImageSeed(t *testing.T) {
	testgate.Goroutines(t)
	cached := pix.MustNew(treeW, treeH, treeC)
	cached.Fill(200)
	const seedVersion = 7
	eachTreeConfig(t, func(t *testing.T, cfg treeConfig) {
		f := newTreeFixture(t, cfg, true)
		if err := f.a.SeedFrom(cached, seedVersion); err != nil {
			t.Fatal(err)
		}
		if s, ok := f.t.Out.Latest(); !ok || s.Version != seedVersion || s.Final || !s.Value.Equal(cached) {
			t.Fatalf("seeded buffer holds %+v", s)
		}
		vs := f.run(t)
		for i, v := range vs {
			if v.version != core.Version(seedVersion+1+i) {
				t.Errorf("publish %d has version %d", i, v.version)
			}
			// The cache, overwritten by what is computed.
			want, mask := f.holdFilled(t, v.processed)
			for p, done := range mask {
				if !done {
					copy(want.Pix[p*treeC:p*treeC+treeC], cached.Pix[p*treeC:p*treeC+treeC])
				}
			}
			if !v.img.Equal(want) {
				t.Errorf("version %d (processed %d) differs", v.version, v.processed)
			}
		}
		if last := vs[len(vs)-1]; !last.final || !last.img.Equal(f.ref) {
			t.Error("seeded run did not end on the reference")
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
			(*pix.Image)(nil),
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

// TestTreeImageVisitsRoundsInRasterBands: round k of a pass computes
// exactly round k of the tree order — the counter positions [k·G, (k+1)·G)
// of the image's power-of-two superset, clipped, where G is the requested
// granularity rounded down to a power of two — and under W ∈ {1,2,3} the
// workers' bands of a round are disjoint raster bands of it: every pixel
// once, and a worker's pixels all precede the next worker's.
func TestTreeImageVisitsRoundsInRasterBands(t *testing.T) {
	testgate.Goroutines(t)
	const superW, superH = 64, 64
	tree, err := perm.Tree2D(superH, superW)
	if err != nil {
		t.Fatal(err)
	}
	type band struct{ round, worker, first, last int }
	for workers := 1; workers <= 3; workers++ {
		for _, g := range []int{200, 40, 1, treeW * treeH} {
			t.Run(fmt.Sprintf("w%d/g%d", workers, g), func(t *testing.T) {
				a := core.New()
				ti, err := NewTreeImage(a, "tree", treeW, treeH, 1)
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				var bands []band
				visits := map[int]int{} // pixel → round that computed it
				round := 0              // advanced by the stage goroutine between rounds
				ti.OnSnapshot = func(int, *pix.Image) { round++ }
				err = a.AddStage("bands", func(c *core.Context) error {
					return ti.Pass(c, func(worker, x0, y0, sx, sy, rows int) error {
						mu.Lock()
						defer mu.Unlock()
						b := band{round, worker, -1, -1}
						for y := y0; y < y0+rows*sy; y += sy {
							for x := x0; x < treeW; x += sx {
								p := y*treeW + x
								if _, dup := visits[p]; dup {
									t.Errorf("pixel %d computed twice", p)
								}
								visits[p] = round
								if b.first < 0 {
									b.first = p
								} else if p <= b.last {
									t.Errorf("band of worker %d is not in raster order at pixel %d", worker, p)
								}
								b.last = p
							}
						}
						if b.first >= 0 {
							bands = append(bands, b)
						}
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
				size := 1 << (bits.Len(uint(g)) - 1)
				if len(visits) != treeW*treeH {
					t.Fatalf("%d of %d pixels computed", len(visits), treeW*treeH)
				}
				for pos := range tree.Len() {
					x, y := tree.At(pos)%superW, tree.At(pos)/superW
					if x < treeW && y < treeH && visits[y*treeW+x] != pos/size {
						t.Fatalf("pixel (%d, %d) computed in round %d, tree position %d is in round %d", x, y, visits[y*treeW+x], pos, pos/size)
					}
				}
				slices.SortFunc(bands, func(a, b band) int { return cmp.Or(a.round-b.round, a.worker-b.worker) })
				for i := 1; i < len(bands); i++ {
					if prev, b := bands[i-1], bands[i]; prev.round == b.round && (prev.worker == b.worker || prev.last >= b.first) {
						t.Errorf("round %d: worker %d's band [%d, %d] and worker %d's [%d, %d] interleave", b.round, prev.worker, prev.first, prev.last, b.worker, b.first, b.last)
					}
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
		if err := ti.Pass(c, func(worker, x0, y0, sx, sy, rows int) error {
			for y := y0; y < y0+rows*sy; y += sy {
				for x := x0; x < treeW; x += sx {
					ti.Working.Pix[y*treeW+x] = 1
				}
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
	rounds, err := perm.TreeRounds(treeH, treeW, round.Granularity)
	if err != nil {
		t.Fatal(err)
	}
	pass := rounds.Len()
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

// TestTreeImageBandsMatchSerial: a round is one fork in bands of whole tile
// rows, each worker computing, stamping and copying its own band, so the
// versions must not depend on the worker count. Every version of a cold
// run, of the run after a Reset and of a seeded run is bit-equal to one
// worker's, on lopsided images and on one whose tile rows are fewer than
// the workers (512×8), at the default round size and at small and large
// ones. The race detector convicts a band that writes outside its tile
// rows.
func TestTreeImageBandsMatchSerial(t *testing.T) {
	testgate.Goroutines(t)
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2) // so the pool runs its workers as goroutines
		defer runtime.GOMAXPROCS(prev)
	}
	runs := func(cfg treeConfig) [][]treeVersion {
		f := newTreeFixture(t, cfg, true)
		cached := pix.MustNew(cfg.w, cfg.h, cfg.c)
		for i := range cached.Pix {
			cached.Pix[i] = int32(i*13%251 + 3)
		}
		var out [][]treeVersion
		for _, seed := range []*pix.Image{nil, nil, cached} {
			if len(out) > 0 {
				if err := f.a.Reset(); err != nil {
					t.Fatal(err)
				}
			}
			if seed != nil {
				if err := f.a.SeedFrom(seed, 7); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, f.run(t))
		}
		return out
	}
	starts := []string{"cold", "reset", "warm"}
	for _, g := range [][2]int{{37, 53}, {1, 64}, {64, 1}, {3, 3}, {512, 8}} {
		for _, c := range []int{1, 3} {
			for _, granularity := range []int{0, 64, g[0] * g[1] / 2} {
				t.Run(fmt.Sprintf("%dx%dx%d/g%d", g[0], g[1], c, granularity), func(t *testing.T) {
					cfg := treeConfig{g[0], g[1], c, 1, core.PublishEveryRound, granularity}
					serial := runs(cfg)
					for _, workers := range []int{2, 3, 5} {
						cfg.workers = workers
						for i, vs := range runs(cfg) {
							if !sameVersions(vs, serial[i]) {
								t.Errorf("w%d %s: %d versions differ from one worker's %d", workers, starts[i], len(vs), len(serial[i]))
							}
						}
					}
				})
			}
		}
	}
}
