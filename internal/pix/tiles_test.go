package pix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// copyTile copies tile t of grid g from src to dst row by row: the plain
// (no hold-fill) tile renderer.
func copyTile(g TileGrid, dst, src *Image, t int) {
	x0, y0, x1, y1 := g.tileBounds(t)
	rowLen := (x1 - x0) * g.C
	for y := y0; y < y1; y++ {
		off := (y*g.W + x0) * g.C
		copy(dst.Pix[off:off+rowLen], src.Pix[off:off+rowLen])
	}
}

func TestTileGridGeometry(t *testing.T) {
	cases := []struct {
		w, h, tiles int
	}{
		{1, 1, 1},
		{32, 32, 1},
		{33, 32, 2},
		{64, 64, 4},
		{50, 70, 2 * 3},
		{512, 512, 16 * 16},
	}
	for _, c := range cases {
		g := NewTileGrid(c.w, c.h, 1)
		if g.Tiles() != c.tiles {
			t.Errorf("%dx%d: got %d tiles, want %d", c.w, c.h, g.Tiles(), c.tiles)
		}
	}
	g := NewTileGrid(50, 70, 1)
	if got := g.TileOf(0, 0); got != 0 {
		t.Errorf("TileOf(0,0) = %d", got)
	}
	if got := g.TileOf(49, 69); got != g.Tiles()-1 {
		t.Errorf("TileOf(49,69) = %d, want %d", got, g.Tiles()-1)
	}
	// Edge tiles clip to the image.
	x0, y0, x1, y1 := g.tileBounds(g.Tiles() - 1)
	if x0 != 32 || y0 != 64 || x1 != 50 || y1 != 70 {
		t.Errorf("last tile bounds = (%d,%d)-(%d,%d)", x0, y0, x1, y1)
	}
}

func TestDirtyTilesMarking(t *testing.T) {
	g := NewTileGrid(100, 100, 1) // 4x4 tiles
	d := NewDirtyTiles(g)
	if d.Count() != 0 {
		t.Fatal("fresh set not empty")
	}
	d.MarkPixel(0, 0)
	d.MarkPixel(31, 31) // same tile
	if d.Count() != 1 {
		t.Errorf("count after same-tile marks = %d, want 1", d.Count())
	}
	d.MarkPixel(99, 99)
	if d.Count() != 2 {
		t.Errorf("count = %d, want 2", d.Count())
	}
	d.Reset()
	if d.Count() != 0 {
		t.Fatal("reset left marks")
	}
	// A rect spanning tile boundaries marks every intersecting tile.
	d.MarkRect(16, 16, 32) // covers pixels 16..47 in both axes -> tiles (0,0)..(1,1)
	if d.Count() != 4 {
		t.Errorf("rect count = %d, want 4", d.Count())
	}
	// Rects clip at the image edge rather than running off the grid.
	d.Reset()
	d.MarkRect(96, 96, 64)
	if d.Count() != 1 {
		t.Errorf("clipped rect count = %d, want 1", d.Count())
	}
	// A whole-image rect takes the MarkAll fast path.
	d.Reset()
	d.MarkRect(0, 0, 128)
	if d.Count() != g.Tiles() {
		t.Errorf("full rect count = %d, want %d", d.Count(), g.Tiles())
	}
	// Or folds and respects the all fast path.
	a := NewDirtyTiles(g)
	a.MarkPixel(50, 50)
	b := NewDirtyTiles(g)
	b.Or(a)
	if b.Count() != 1 {
		t.Errorf("or count = %d, want 1", b.Count())
	}
	b.Or(d)
	if b.Count() != g.Tiles() {
		t.Errorf("or-all count = %d, want %d", b.Count(), g.Tiles())
	}
}

func TestDirtyTilesForEachOrder(t *testing.T) {
	g := NewTileGrid(100, 100, 1)
	d := NewDirtyTiles(g)
	d.MarkPixel(99, 0)  // tile 3
	d.MarkPixel(0, 99)  // tile 12
	d.MarkPixel(40, 40) // tile 5
	var got []int
	d.forEach(func(tile int) { got = append(got, tile) })
	want := []int{3, 5, 12}
	if len(got) != len(want) {
		t.Fatalf("forEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forEach visited %v, want %v", got, want)
		}
	}
}

func TestTileClonerDepthValidation(t *testing.T) {
	if _, err := NewTileCloner(32, 32, 1, 1); err == nil {
		t.Fatal("depth 1 accepted")
	}
	if _, err := NewTileCloner(32, 32, 1, 2); err != nil {
		t.Fatal(err)
	}
}

func TestTileClonerSyncsOnlyStaleTiles(t *testing.T) {
	src := MustNew(64, 64, 1) // 2x2 tiles
	tc, err := NewTileCloner(src.W, src.H, src.C, 2)
	if err != nil {
		t.Fatal(err)
	}
	render := func(dst *Image, tile int) { copyTile(tc.g, dst, src, tile) }
	countingRender := func(n *int) func(*Image, int) {
		return func(dst *Image, tile int) { *n++; render(dst, tile) }
	}
	// First sync of each ring member renders everything (fresh images are
	// fully stale).
	var n int
	tc.Sync(countingRender(&n))
	if n != 4 {
		t.Fatalf("first sync rendered %d tiles, want 4", n)
	}
	n = 0
	tc.Sync(countingRender(&n))
	if n != 4 {
		t.Fatalf("second ring member first sync rendered %d tiles, want 4", n)
	}
	// With nothing invalidated, a sync renders nothing.
	n = 0
	out := tc.Sync(countingRender(&n))
	if n != 0 {
		t.Fatalf("clean sync rendered %d tiles, want 0", n)
	}
	if !out.Equal(src) {
		t.Fatal("clean sync diverged from source")
	}
	// Invalidating one tile makes each ring member re-render exactly it.
	src.Set(40, 40, 0, 7)
	d := NewDirtyTiles(tc.g)
	d.MarkPixel(40, 40)
	tc.Invalidate(d)
	for i := 0; i < len(tc.ring); i++ {
		n = 0
		out = tc.Sync(countingRender(&n))
		if n != 1 {
			t.Fatalf("post-invalidate sync %d rendered %d tiles, want 1", i, n)
		}
		if !out.Equal(src) {
			t.Fatalf("post-invalidate sync %d diverged from source", i)
		}
	}
}

func TestSnapshotterValidation(t *testing.T) {
	im := MustNew(8, 8, 1)
	if _, err := NewSnapshotter(im, 0, SnapshotClone); err == nil {
		t.Fatal("workers 0 accepted")
	}
	if _, err := NewSnapshotter(im, 1, SnapshotMode(99)); err == nil {
		t.Fatal("bogus mode accepted")
	}
	s, err := NewSnapshotter(im, 2, SnapshotTiles)
	if err != nil {
		t.Fatal(err)
	}
	if s.mode != SnapshotTiles {
		t.Fatalf("mode = %d", s.mode)
	}
	if len(s.filled) != 64 {
		t.Fatalf("filled len = %d", len(s.filled))
	}
}

// fillTreeOrder returns the 2D tree-sampling visit order of a w×h image as
// pixel indices: block origins coarse to fine, the order diffusive image
// stages process pixels in.
func fillTreeOrder(w, h int) []int {
	side := 1
	for side < w || side < h {
		side <<= 1
	}
	var order []int
	seen := make(map[int]bool)
	for step := side; step >= 1; step >>= 1 {
		for y := 0; y < h; y += step {
			for x := 0; x < w; x += step {
				idx := y*w + x
				if !seen[idx] {
					seen[idx] = true
					order = append(order, idx)
				}
			}
		}
	}
	return order
}

// runSnapshotComparison marks pixels of a rnd-generated image in the given
// order, spread across workers, snapshotting every snapEvery marks, and
// fails unless the tile-mode snapshot is bit-identical to HoldFill at every
// version. Returns false (for testing/quick) on mismatch.
func runSnapshotComparison(t *testing.T, rnd *rand.Rand, w, h, c, workers, snapEvery int, order []int) bool {
	working := MustNew(w, h, c)
	for i := range working.Pix {
		working.Pix[i] = int32(rnd.Intn(256))
	}
	tiles, err := NewSnapshotter(working, workers, SnapshotTiles)
	if err != nil {
		t.Fatal(err)
	}
	check := func(version int) bool {
		got, err := tiles.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, err := HoldFill(working, tiles.filled)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Logf("snapshot version %d diverged from HoldFill (%dx%dx%d, %d workers)",
				version, w, h, c, workers)
			return false
		}
		return true
	}
	version := 0
	for i, idx := range order {
		// Re-marks mutate the working value, modeling a recomputation pass
		// (kmeans re-assigns every pixel each iteration).
		working.Pix[idx*c] = int32(rnd.Intn(256))
		tiles.Mark(i%workers, idx)
		if (i+1)%snapEvery == 0 {
			version++
			if !check(version) {
				return false
			}
		}
	}
	return check(version + 1)
}

func TestSnapshotterTilesMatchesHoldFillTreeOrder(t *testing.T) {
	// Deterministic tree-order fill across tile boundaries and a ragged
	// edge, snapshotting every few marks — the conv2d/debayer shape.
	rnd := rand.New(rand.NewSource(1))
	for _, geom := range [][2]int{{48, 40}, {33, 65}, {8, 8}, {1, 1}, {100, 3}} {
		w, h := geom[0], geom[1]
		order := fillTreeOrder(w, h)
		if !runSnapshotComparison(t, rnd, w, h, 1, 3, max(1, len(order)/7), order) {
			t.Fatalf("%dx%d tree-order fill diverged", w, h)
		}
	}
}

func TestSnapshotterTilesMatchesHoldFillRepeatedPasses(t *testing.T) {
	// Two full passes over the same image (the kmeans shape: every pixel
	// re-marked with new values each iteration).
	rnd := rand.New(rand.NewSource(2))
	order := fillTreeOrder(40, 40)
	double := append(append([]int(nil), order...), order...)
	if !runSnapshotComparison(t, rnd, 40, 40, 3, 4, 97, double) {
		t.Fatal("repeated-pass fill diverged")
	}
}

// TestSnapshotterTilesQuick is the property test: for random geometry,
// channel count, worker count, mark order (any permutation, not just tree
// order), and snapshot cadence, dirty-tile snapshots are bit-identical to
// full HoldFill clones at every published version.
func TestSnapshotterTilesQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		w := 1 + rnd.Intn(70)
		h := 1 + rnd.Intn(70)
		c := 1 + rnd.Intn(3)
		workers := 1 + rnd.Intn(4)
		order := rnd.Perm(w * h)
		// Random re-marks: append a shuffled sample of already-marked pixels.
		for _, i := range rnd.Perm(len(order))[:len(order)/3] {
			order = append(order, order[i])
		}
		snapEvery := 1 + rnd.Intn(len(order))
		return runSnapshotComparison(t, rnd, w, h, c, workers, snapEvery, order)
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotterTilesAliasingContract(t *testing.T) {
	// A published snapshot must stay intact until ring-depth further
	// publishes, then its storage is reused.
	working := MustNew(64, 64, 1)
	s, err := NewSnapshotter(working, 1, SnapshotTiles)
	if err != nil {
		t.Fatal(err)
	}
	working.SetGray(0, 0, 11)
	s.Mark(0, 0)
	first, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	keep := first.Clone()
	for i := 0; i < snapshotRingDepth-1; i++ {
		working.SetGray(0, 0, int32(20+i))
		s.Mark(0, 0)
		if _, err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if !first.Equal(keep) {
			t.Fatalf("snapshot mutated after %d further publishes (depth %d)", i+1, snapshotRingDepth)
		}
	}
	working.SetGray(0, 0, 99)
	s.Mark(0, 0)
	reused, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if reused != first {
		t.Fatal("ring did not reuse storage after depth publishes")
	}
}

func TestSnapshotterCloneSnapshotsImmutable(t *testing.T) {
	working := MustNew(16, 16, 1)
	s, err := NewSnapshotter(working, 1, SnapshotClone)
	if err != nil {
		t.Fatal(err)
	}
	working.SetGray(0, 0, 5)
	s.Mark(0, 0)
	first, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	keep := first.Clone()
	for v := 1; v < 10; v++ {
		working.SetGray(0, 0, int32(v*10))
		s.Mark(0, 0)
		if _, err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if !first.Equal(keep) {
		t.Fatal("clone-mode snapshot mutated by later publishes")
	}
}

// TestSnapshotterResetReuse: after Reset a snapshotter over a rewritten
// working image behaves exactly like a fresh one — every version of the
// second run is bit-identical to HoldFill, with no pixels leaking from the
// first run through stale filled bits or stale ring tiles.
func TestSnapshotterResetReuse(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	working := MustNew(48, 40, 1)
	s, err := NewSnapshotter(working, 2, SnapshotTiles)
	if err != nil {
		t.Fatal(err)
	}
	order := fillTreeOrder(working.W, working.H)
	run := func(cycle int) {
		for i, idx := range order {
			working.Pix[idx] = int32(rnd.Intn(256))
			s.Mark(i%2, idx)
			if (i+1)%61 == 0 || i == len(order)-1 {
				got, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				want, err := HoldFill(working, s.filled)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("cycle %d mark %d: snapshot diverged from HoldFill", cycle, i)
				}
			}
		}
	}
	for cycle := 1; cycle <= 3; cycle++ {
		run(cycle)
		s.Reset()
		for i, f := range s.filled {
			if f {
				t.Fatalf("cycle %d: filled[%d] survived Reset", cycle, i)
			}
		}
	}
}

// TestSnapshotterResetCloneMode: Reset also clears the mask in clone mode.
func TestSnapshotterResetCloneMode(t *testing.T) {
	working := MustNew(8, 8, 1)
	s, err := NewSnapshotter(working, 1, SnapshotClone)
	if err != nil {
		t.Fatal(err)
	}
	working.SetGray(0, 0, 9)
	s.Mark(0, 0)
	s.Reset()
	if s.filled[0] {
		t.Fatal("filled mask survived Reset")
	}
}

// TestTileClonerInvalidateAll: after InvalidateAll every ring member
// re-renders every tile.
func TestTileClonerInvalidateAll(t *testing.T) {
	src := MustNew(64, 64, 1) // 2x2 tiles
	tc, err := NewTileCloner(src.W, src.H, src.C, 2)
	if err != nil {
		t.Fatal(err)
	}
	render := func(dst *Image, tile int) { copyTile(tc.g, dst, src, tile) }
	for i := 0; i < len(tc.ring); i++ {
		tc.Sync(render)
	}
	var n int
	tc.Sync(func(dst *Image, tile int) { n++; render(dst, tile) })
	if n != 0 {
		t.Fatalf("clean sync rendered %d tiles, want 0", n)
	}
	tc.InvalidateAll()
	for i := 0; i < len(tc.ring); i++ {
		n = 0
		out := tc.Sync(func(dst *Image, tile int) { n++; render(dst, tile) })
		if n != 4 {
			t.Fatalf("post-InvalidateAll sync %d rendered %d tiles, want 4", i, n)
		}
		if !out.Equal(src) {
			t.Fatalf("post-InvalidateAll sync %d diverged", i)
		}
	}
}
