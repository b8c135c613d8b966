package pix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// These tests pin what the Snapshotter shim promises: its refusals, and in
// both modes that each snapshot is HoldFill of the marked pixels, is a
// fresh image no later call writes, and that Reset clears the marks.

func TestSnapshotterValidation(t *testing.T) {
	im := MustNew(8, 8, 1)
	if _, err := NewSnapshotter(im, 0, SnapshotClone); err == nil {
		t.Fatal("workers 0 accepted")
	}
	if _, err := NewSnapshotter(im, 1, SnapshotMode(99)); err == nil {
		t.Fatal("bogus mode accepted")
	}
	for _, mode := range []SnapshotMode{SnapshotClone, SnapshotTiles} {
		s, err := NewSnapshotter(im, 2, mode)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if len(s.filled) != 64 {
			t.Fatalf("mode %d: filled len = %d", mode, len(s.filled))
		}
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
// order, spread across workers, snapshotting every snapEvery marks. It
// reports false (for testing/quick) unless every snapshot equals HoldFill
// of the pixels marked so far and shares no storage with the working image
// or any earlier snapshot, which must all still read as published.
func runSnapshotComparison(t *testing.T, rnd *rand.Rand, mode SnapshotMode, w, h, c, workers, snapEvery int, order []int) bool {
	working := MustNew(w, h, c)
	for i := range working.Pix {
		working.Pix[i] = int32(rnd.Intn(256))
	}
	s, err := NewSnapshotter(working, workers, mode)
	if err != nil {
		t.Fatal(err)
	}
	marked := make([]bool, w*h)
	var published, kept []*Image
	check := func(version int) bool {
		got, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, err := HoldFill(working, marked)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Logf("mode %d version %d diverged from HoldFill (%dx%dx%d, %d workers)",
				mode, version, w, h, c, workers)
			return false
		}
		if &got.Pix[0] == &working.Pix[0] {
			t.Logf("mode %d version %d aliases the working image", mode, version)
			return false
		}
		for i, old := range published {
			if &got.Pix[0] == &old.Pix[0] || !old.Equal(kept[i]) {
				t.Logf("mode %d version %d reused or rewrote version %d", mode, version, i+1)
				return false
			}
		}
		published = append(published, got)
		kept = append(kept, got.Clone())
		return true
	}
	version := 0
	for i, idx := range order {
		// Re-marks mutate the working value, modeling a recomputation pass
		// (kmeans re-assigns every pixel each iteration).
		working.Pix[idx*c] = int32(rnd.Intn(256))
		s.Mark(i%workers, idx)
		marked[idx] = true
		if (i+1)%snapEvery == 0 {
			version++
			if !check(version) {
				return false
			}
		}
	}
	return check(version + 1)
}

var snapshotModes = []SnapshotMode{SnapshotClone, SnapshotTiles}

func TestSnapshotterTilesMatchesHoldFillTreeOrder(t *testing.T) {
	// Deterministic tree-order fill with ragged edges, snapshotting every
	// few marks: the conv2d/debayer shape.
	rnd := rand.New(rand.NewSource(1))
	for _, mode := range snapshotModes {
		for _, geom := range [][2]int{{48, 40}, {33, 65}, {8, 8}, {1, 1}, {100, 3}} {
			w, h := geom[0], geom[1]
			order := fillTreeOrder(w, h)
			if !runSnapshotComparison(t, rnd, mode, w, h, 1, 3, max(1, len(order)/7), order) {
				t.Fatalf("mode %d %dx%d tree-order fill diverged", mode, w, h)
			}
		}
	}
}

func TestSnapshotterTilesMatchesHoldFillRepeatedPasses(t *testing.T) {
	// Two full passes over the same image (the kmeans shape: every pixel
	// re-marked with new values each iteration).
	rnd := rand.New(rand.NewSource(2))
	order := fillTreeOrder(40, 40)
	double := append(append([]int(nil), order...), order...)
	for _, mode := range snapshotModes {
		if !runSnapshotComparison(t, rnd, mode, 40, 40, 3, 4, 97, double) {
			t.Fatalf("mode %d repeated-pass fill diverged", mode)
		}
	}
}

// TestSnapshotterTilesQuick is the property test: for random geometry,
// channel count, worker count, mark order (any permutation, not just tree
// order) and snapshot cadence, every snapshot is HoldFill of the marks.
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
		return runSnapshotComparison(t, rnd, snapshotModes[rnd.Intn(2)], w, h, c, workers, snapEvery, order)
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// snapshotsStayPut publishes ten snapshots of a pixel rewritten before
// each, and fails if the first one changes or any storage is reused.
func snapshotsStayPut(t *testing.T, mode SnapshotMode) {
	t.Helper()
	working := MustNew(16, 16, 1)
	s, err := NewSnapshotter(working, 1, mode)
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
		next, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if next == first || &next.Pix[0] == &first.Pix[0] {
			t.Fatalf("mode %d: publish %d reused the first snapshot's storage", mode, v)
		}
	}
	if !first.Equal(keep) {
		t.Fatalf("mode %d: snapshot mutated by later publishes", mode)
	}
}

// TestSnapshotterTilesAliasingContract: tile mode hands out fresh images;
// no later publish overwrites one.
func TestSnapshotterTilesAliasingContract(t *testing.T) { snapshotsStayPut(t, SnapshotTiles) }

func TestSnapshotterCloneSnapshotsImmutable(t *testing.T) { snapshotsStayPut(t, SnapshotClone) }

// TestSnapshotterResetReuse: after Reset a snapshotter over a rewritten
// working image behaves exactly like a fresh one. Every version of the
// next run is HoldFill of that run's marks only, with no pixels leaking
// from the previous run through stale marks.
func TestSnapshotterResetReuse(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	working := MustNew(48, 40, 1)
	s, err := NewSnapshotter(working, 2, SnapshotTiles)
	if err != nil {
		t.Fatal(err)
	}
	order := fillTreeOrder(working.W, working.H)
	marked := make([]bool, len(s.filled))
	for cycle := 1; cycle <= 3; cycle++ {
		clear(marked)
		for i, idx := range order {
			working.Pix[idx] = int32(rnd.Intn(256))
			s.Mark(i%2, idx)
			marked[idx] = true
			if (i+1)%61 == 0 || i == len(order)-1 {
				got, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				want, err := HoldFill(working, marked)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("cycle %d mark %d: snapshot diverged from HoldFill", cycle, i)
				}
			}
		}
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
