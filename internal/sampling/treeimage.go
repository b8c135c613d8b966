package sampling

import (
	"fmt"
	"math/bits"

	"anytime/internal/core"
	"anytime/internal/perm"
	"anytime/internal/pix"
)

// TreeImage is the output side of a tree-sampled diffusive image stage
// (paper §III-B2, Figure 5): output pixels are visited in 2D tree order and
// written into one working image, and every published version shows the
// pixels not yet computed at their nearest computed tree ancestor's value.
// It owns the visit order, the working image, the output buffer, and the
// run-to-run state of all three — the app supplies only the per-pixel
// computation, as the span it hands to Pass.
//
// A version is the last one plus its update. Between rounds, TreeImage
// spreads each newly computed pixel over the part of its tree block that
// nothing finer has claimed yet, so Working always holds the hold-filled
// image of everything computed so far, and publishing a version is one copy
// of it. At every round boundary the computed pixels are a prefix of the
// tree order, so every computed pixel's ancestors are computed too, which is
// what makes the in-place update equal to pix.HoldFill of the computed
// prefix.
//
// Only round boundaries are observable: a version shows the set of pixels
// computed so far, never the order they were computed in. So the kernels
// visit each round of the tree order in ascending pixel index — one sweep of
// the round's lattice in memory order instead of a cache miss per pixel —
// and with several workers each takes a raster band of it.
type TreeImage struct {
	// Out is the stage's output buffer.
	Out *core.Buffer[*pix.Image]
	// Working is the image the span writes computed pixels into; pixel
	// index d occupies Working.Pix[d*C : d*C+C]. At every round boundary it
	// holds the hold-filled version about to be published.
	Working *pix.Image
	// OnSnapshot, if non-nil, is invoked on the stage goroutine with each
	// round snapshot before it is published, together with the number of
	// output pixels computed so far.
	OnSnapshot func(processed int, img *pix.Image)

	tree   perm.Order // the 2D tree order
	ord    perm.Order // the visit order: tree, each round in ascending index
	round  int        // the round size ord is sorted for; 0 before any Pass
	filled []bool     // pixels computed this run
	shown  int        // visit positions already rendered into Working
	fine   int        // from this visit position on, every pixel's block is itself
	root   int        // side of the root pixel's block: it covers the image

	// A seeded run keeps the cached frame in Working: only the pixels of
	// stale tiles hold-fill, and a bare image (stale == nil) none at all.
	seeded bool
	stale  *pix.DirtyTiles
	grid   pix.TileGrid
}

// NewTreeImage builds the output side of a w×h, channels-deep tree-sampled
// stage publishing to a new buffer called bufferName, and registers its
// run-to-run state on a:
//
//   - OnReset forgets which pixels were computed and rewinds the buffer; the
//     visit order and the image storage are input-independent and reused.
//   - OnSeed accepts a cached output frame — a *pix.Image, or a
//     *pix.SeedFrame carrying the stale tiles of a delta start — as the
//     starting published state. The run still computes every pixel, so its
//     final is bit-identical to a cold run's. A payload of the wrong type or
//     geometry is refused with bufferName leading the error.
//
// Every version is a fresh copy of Working, immutable once published.
func NewTreeImage(a *core.Automaton, bufferName string, w, h, channels int) (*TreeImage, error) {
	tree, err := perm.Tree2D(h, w)
	if err != nil {
		return nil, err
	}
	working, err := pix.New(w, h, channels)
	if err != nil {
		return nil, err
	}
	t := &TreeImage{
		Out:     core.NewBuffer[*pix.Image](bufferName, nil),
		Working: working,
		tree:    tree,
		filled:  make([]bool, w*h),
		root:    1 << bits.Len(uint(max(w, h, 1)-1)),
		grid:    pix.NewTileGrid(w, h, channels),
	}
	a.OnReset(func() {
		clear(t.filled)
		t.shown, t.seeded, t.stale = 0, false, nil
		t.Out.Reset()
	})
	a.OnSeed(func(seed any, v core.Version) error {
		img, stale, err := pix.AsSeedFrame(seed, w, h, channels)
		if err != nil {
			return fmt.Errorf("%s: %w", bufferName, err)
		}
		img.CloneInto(working)
		t.seeded, t.stale = true, stale
		return t.Out.Seed(working.Clone(), v)
	})
	return t, nil
}

// At returns the pixel index (y*w + x) visited at position pos of the
// current Pass: the tree order, with each of the pass's rounds in ascending
// pixel index.
func (t *TreeImage) At(pos int) int { return t.ord.At(pos) }

// Mark records that pixel idx of Working has been computed. The span calls
// it once per pixel it writes; workers may call it concurrently for
// distinct pixels.
func (t *TreeImage) Mark(idx int) { t.filled[idx] = true }

// Pass runs one diffusive pass over every pixel: span computes the pixels
// at visit positions [lo, hi) — for each, d := t.At(pos), write pixel d of
// Working, t.Mark(d) — and at every round boundary cfg's publish
// policy selects, the hold-filled approximation is published to Out.
// markFinal marks the complete image precise; a stage that repaints the
// image several times passes it on its last pass only.
//
// The visit order is sorted for cfg's round size on the first Pass that
// uses it and kept across passes and runs.
func (t *TreeImage) Pass(c *core.Context, span func(worker, lo, hi int) error, cfg core.RoundConfig, markFinal bool) error {
	if g := cfg.RoundSize(t.tree.Len()); g > 0 && g != t.round {
		if err := t.sortRounds(g); err != nil {
			return err
		}
	}
	return core.DiffusiveBatch(c, t.Out, t.ord.Len(), span, t.render, cfg, markFinal)
}

// Repaint runs a pass that rewrites pixels already computed: span applies
// updates [lo, hi) of total, each rewriting whichever pixels of Working the
// caller's update names (no Mark), and at every round boundary cfg's
// publish policy selects, Working is published as it stands. Nothing is
// hold-filled, so Repaint is valid only once a Pass of this run has computed
// every pixel, and fails before that. A total of zero publishes one version
// of Working unchanged, the way to mark it final.
func (t *TreeImage) Repaint(c *core.Context, total int, span func(worker, lo, hi int) error, cfg core.RoundConfig, markFinal bool) error {
	if t.shown < len(t.filled) {
		return fmt.Errorf("%s: repaint before every pixel is computed", t.Out.Name())
	}
	return core.DiffusiveBatch(c, t.Out, total, span, t.repainted, cfg, markFinal)
}

// sortRounds makes the visit order the tree order with each round of g
// positions in ascending pixel index. Each round's pixel set is the tree's,
// so the versions published at round boundaries do not change.
func (t *TreeImage) sortRounds(g int) error {
	ord, err := t.tree.SortRounds(g)
	if err != nil {
		return err
	}
	t.ord, t.round, t.fine = ord, g, 0
	// Only a pixel with both coordinates even owns more than itself.
	w := t.Working.W
	for pos := ord.Len() - 1; pos >= 0; pos-- {
		if p := ord.At(pos); (p%w)&1 == 0 && (p/w)&1 == 0 {
			t.fine = pos + 1
			break
		}
	}
	return nil
}

// render brings Working up to date with the first processed positions and
// returns the version to publish. Only a run's first pass spreads: once
// every pixel is computed, a repainting pass leaves nothing to hold-fill.
// processed is a round boundary, so the computed pixels are a prefix of the
// tree order, and the spreads of one update write disjoint blocks (each
// block a spread writes holds no computed pixel, and only its parent
// spreads into it): the order within the update does not matter.
// A large update — the coarse levels, which the first rounds complete — is
// cheaper as one raster sweep than block by block in the scattered tree
// order; a seeded run cannot sweep, since the sweep would read trusted
// tiles' cached values as ancestors.
func (t *TreeImage) render(processed int) (*pix.Image, error) {
	end := min(processed, t.fine)
	switch {
	case t.shown >= end || t.seeded && t.stale == nil:
	case !t.seeded && t.sweeps(end):
		t.holdFill()
	default:
		for pos := t.shown; pos < end; pos++ {
			t.spread(t.ord.At(pos))
		}
	}
	t.shown = max(t.shown, processed)
	img := t.Working.Clone()
	if t.OnSnapshot != nil {
		t.OnSnapshot(processed, img)
	}
	return img, nil
}

// repainted is Repaint's snapshot: every pixel is computed, so there is
// nothing to bring up to date.
func (t *TreeImage) repainted(int) (*pix.Image, error) { return t.render(len(t.filled)) }

// block returns pixel p's coordinates and the side of its tree block: the
// lowest set bit of x|y, or the whole image for the root.
func (t *TreeImage) block(p int) (x, y, side int) {
	x, y = p%t.Working.W, p/t.Working.W
	if p == 0 {
		return x, y, t.root
	}
	return x, y, (x | y) & -(x | y)
}

// sweeps reports whether spreading positions [shown, end) block by block
// would take at least a quarter as many scattered row writes as the image
// has pixels: a pixel's three child blocks per level, each as many rows
// tall as it is wide, are about three rows per unit of its block's side.
func (t *TreeImage) sweeps(end int) bool {
	rows, limit := 0, len(t.filled)/4
	for pos := t.shown; pos < end && rows < limit; pos++ {
		_, _, side := t.block(t.ord.At(pos))
		rows += 3 * (side - 1)
	}
	return rows >= limit
}

// holdFill rewrites every pixel not yet computed at its parent's value,
// coarse lattice first, so each takes its nearest computed ancestor's: the
// pix.HoldFill sweep, in place. The root, position 0, is computed before any
// render, so every pixel has a computed ancestor and no mask of which
// pixels are already filled is needed.
func (t *TreeImage) holdFill() {
	w, h, c := t.Working.W, t.Working.H, t.Working.C
	px := t.Working.Pix
	for step := t.root / 2; step > 0; step /= 2 {
		up := ^(2*step - 1)
		for y := 0; y < h; y += step {
			// Points of the coarser lattice are their own parents.
			x, dx := 0, step
			if y&up == y {
				x, dx = step, 2*step
			}
			for row := (y & up) * w; x < w; x += dx {
				if z := y*w + x; !t.filled[z] {
					d, s := z*c, (row+x&up)*c
					for k := range c {
						px[d+k] = px[s+k]
					}
				}
			}
		}
	}
}

// spread hold-fills the pixels that now inherit from computed pixel p. p's
// tree block is p's own top-left quadrant plus three child blocks at each
// finer level; a child whose origin is computed claims its block (its own
// spread covers it), and a child whose origin is not has no computed pixel
// below it, so the whole block takes p's value.
func (t *TreeImage) spread(p int) {
	x, y, side := t.block(p)
	c := t.Working.C
	src := t.Working.Pix[p*c : p*c+c]
	for h := side / 2; h > 0; h /= 2 {
		t.fill(x+h, y, h, src)
		t.fill(x, y+h, h, src)
		t.fill(x+h, y+h, h, src)
	}
}

// fill writes src over the side×side block at (x0, y0), clipped to the
// image, unless the block's origin is computed or off the image. In a
// seeded run only stale tiles are written.
func (t *TreeImage) fill(x0, y0, side int, src []int32) {
	w, h, c := t.Working.W, t.Working.H, t.Working.C
	if x0 >= w || y0 >= h || t.filled[y0*w+x0] {
		return
	}
	x1, y1 := min(x0+side, w), min(y0+side, h)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; {
			end := x1
			if t.seeded {
				end = min(x1, (x|(pix.TileSize-1))+1)
				if !t.stale.Has(t.grid.TileOf(x, y)) {
					x = end
					continue
				}
			}
			row := t.Working.Pix[(y*w+x)*c : (y*w+end)*c]
			for n := copy(row, src); n < len(row); {
				n += copy(row[n:], row[:n])
			}
			x = end
		}
	}
}
