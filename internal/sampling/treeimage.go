package sampling

import (
	"fmt"
	"math"

	"anytime/internal/core"
	"anytime/internal/perm"
	"anytime/internal/pix"
)

// TreeImage is the output side of a tree-sampled diffusive image stage
// (paper §III-B2, Figure 5): output pixels are visited in 2D tree order and
// written into one working image, and every published version shows the
// pixels not yet computed at their nearest computed tree ancestor's value.
// It owns the visit order, the working image, the output buffer, and the
// run-to-run state of all three — the app supplies only the computation of
// a band of pixels, as the span it hands to Pass.
//
// Rounds are lattices: cut on power-of-two boundaries of the tree counter
// over the image's power-of-two superset (perm.Rounds), each round is one
// lattice coset clipped to the image. Only round boundaries are observable,
// so the kernels walk a round's lattice rows in memory order, and whether a
// pixel is computed is a lookup of its residues.
//
// A version is the last one plus its update, and each round is one fork on
// the pass's round pool in bands of whole tile rows, a tile being the
// round lattice's larger spacing. Each worker computes its band's lattice
// points, spreads each newly computed pixel over the part of its tree block
// that nothing finer has claimed yet (the round's stamp, its band's share),
// and copies its band's rows into the version the stage goroutine allocated
// before the fork. A stamp reads only computed pixels of the tile it
// writes, and the kernels never read Working, so no pixel crosses a band:
// Working holds the hold-filled image of everything computed so far at
// every published round boundary, and the version is a copy of it.
type TreeImage struct {
	// Out is the stage's output buffer.
	Out *core.Buffer[*pix.Image]
	// Working is the image the span writes computed pixels into; pixel
	// (x, y) occupies Working.Pix[(y*W+x)*C : (y*W+x)*C+C]. At every round
	// boundary it holds the hold-filled version about to be published.
	Working *pix.Image
	// OnSnapshot, if non-nil, is invoked on the stage goroutine with each
	// round snapshot before it is published, together with the number of
	// output pixels computed so far.
	OnSnapshot func(processed int, img *pix.Image)

	lat   perm.Rounds // the tree order's rounds, at the size round asked for
	round int         // the granularity lat was cut for
	n     int         // counter positions of the superset: every pass's total
	shown int         // counter positions already rendered into Working this run
	done  int         // pixels the current pass has computed

	// The fork in flight, set by the stage goroutine before it forks:
	// bandPart and rowsPart are its parts, bound once.
	span               func(worker, x0, y0, sx, sy, rows int) error // the pass's kernel
	m                  int                                          // the round it computes, or -1
	blocks             []block                                      // the blocks it stamps
	img                *pix.Image                                   // the version it copies into, or nil
	bandPart, rowsPart func(worker, lo, hi int) error

	// seeded: Working starts as the seed's frame, and the run never
	// hold-fills.
	seeded bool
}

// NewTreeImage builds the output side of a w×h, channels-deep tree-sampled
// stage publishing to a new buffer called bufferName, and registers its
// run-to-run state on a:
//
//   - OnReset forgets which pixels were computed and rewinds the buffer; the
//     rounds and the image storage are input-independent and reused.
//   - OnSeed accepts an output frame, a *pix.Image, as the starting
//     published state. The run still computes every round from the first,
//     so its final is bit-identical to a cold run's, and cut after as many
//     rounds as the seed had it is the seed itself: a cold run cut there.
//     It never hold-fills, so the pixels it has not computed keep the
//     seed's values: cut later, it trails the cold run wherever the cold
//     run's finer hold-fill has reached past the seed's lattice level
//     (−6.1 dB at a seed of 4 rounds cut after 8, conv2d at 256²). A
//     payload of the wrong type or geometry is refused with bufferName
//     leading the error.
//
// Every version is a fresh copy of Working, immutable once published.
func NewTreeImage(a *core.Automaton, bufferName string, w, h, channels int) (*TreeImage, error) {
	whole, err := perm.TreeRounds(h, w, math.MaxInt32) // one round: the superset
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
		n:       whole.Len() * whole.Size,
	}
	t.bandPart, t.rowsPart = t.forkBand, t.forkRows
	a.OnReset(func() {
		t.shown, t.seeded = 0, false
		t.Out.Reset()
	})
	a.OnSeed(func(seed any, v core.Version) error {
		img, ok := seed.(*pix.Image)
		switch {
		case !ok || img == nil:
			return fmt.Errorf("%s: seed payload %T is not a *pix.Image", bufferName, seed)
		case img.W != w || img.H != h || img.C != channels:
			return fmt.Errorf("%s: seed geometry %dx%dx%d does not match %dx%dx%d",
				bufferName, img.W, img.H, img.C, w, h, channels)
		}
		img.CloneInto(working)
		t.seeded = true
		return t.Out.Seed(working.Clone(), v)
	})
	return t, nil
}

// Pass runs one diffusive pass over every pixel and, at every round
// boundary cfg's publish policy selects, publishes the hold-filled
// approximation to Out. span computes a band of one round's lattice into
// Working: the pixels (x, y0 + i·sy), x0 ≤ x < Working.W stepping sx, for
// i < rows; workers get disjoint bands of whole tile rows, and a round of
// fewer tile rows than workers runs on the stage goroutine alone. markFinal
// marks the complete image precise; a stage that repaints the image passes
// it on its last pass only.
//
// A tree-sampled stage rounds cfg's granularity down to a lattice size, a
// power of two counted over the image's power-of-two superset, so rounds of
// an image whose sides are not powers of two differ in size. OnSnapshot
// still receives the number of pixels computed.
func (t *TreeImage) Pass(c *core.Context, span func(worker, x0, y0, sx, sy, rows int) error, cfg core.RoundConfig, markFinal bool) error {
	if g := cfg.RoundSize(t.n); g != t.round {
		lat, err := perm.TreeRounds(t.Working.H, t.Working.W, g)
		if err != nil {
			return err
		}
		t.lat, t.round = lat, g
	}
	cfg.Granularity = t.lat.Size
	t.span, t.done = span, 0
	return core.DiffusiveRounds(c, t.Out, t.n, t.passRound, cfg, markFinal)
}

// passRound is one round of a Pass: the counter positions [lo, hi), one
// lattice round or none, in one fork over tile rows. A published round
// brings Working up to date with the first hi positions — only a run's
// first pass hold-fills: once every pixel is computed, a later pass leaves
// nothing to fill — and copies it into a new version.
func (t *TreeImage) passRound(fork core.Fork, lo, hi int, publish bool) (*pix.Image, error) {
	lat := t.lat
	t.m, t.blocks, t.img = -1, t.blocks[:0], nil
	if hi > lo {
		t.m = lo / lat.Size
	}
	tile := max(lat.SX, lat.SY)
	rows := (t.Working.H + tile - 1) / tile
	if publish {
		if hi > t.shown && !t.seeded {
			t.pattern(t.shown/lat.Size, hi/lat.Size)
		}
		if fork.Splits(rows) {
			t.img = t.newVersion()
		}
	}
	if err := fork.Run(0, rows, t.bandPart); err != nil {
		return nil, err
	}
	if t.m >= 0 {
		t.done += lat.Pixels(t.m)
	}
	if !publish {
		return nil, nil
	}
	t.shown = max(t.shown, hi)
	return t.publish(t.done), nil
}

// forkBand is a Pass fork's work on tile rows [lo, hi): the round's lattice
// points there, the stamp's blocks there, and those rows' copy.
func (t *TreeImage) forkBand(worker, lo, hi int) error {
	lat := t.lat
	tile := max(lat.SX, lat.SY)
	y0, y1 := lo*tile, min(hi*tile, t.Working.H)
	if t.m >= 0 {
		// y0 is a multiple of SY, so the round's first row in the band is
		// its coset offset b below y0.
		x0, b := lat.Coset(t.m)
		if y := y0 + b; x0 < t.Working.W && y < y1 {
			if err := t.span(worker, x0, y, lat.SX, lat.SY, (y1-y+lat.SY-1)/lat.SY); err != nil {
				return err
			}
		}
	}
	t.stamp(y0, y1, tile)
	if t.img != nil {
		return t.forkRows(worker, y0, y1)
	}
	return nil
}

// forkRows copies Working's rows [lo, hi) into the version in flight.
func (t *TreeImage) forkRows(_, lo, hi int) error {
	row := t.Working.W * t.Working.C
	copy(t.img.Pix[lo*row:hi*row], t.Working.Pix[lo*row:hi*row])
	return nil
}

// Repaint runs a pass that rewrites pixels already computed: span applies
// updates [lo, hi) of total, each rewriting whichever pixels of Working the
// caller's update names, and at every round boundary cfg's publish policy
// selects, Working is published as it stands, copied by a second fork in
// bands of rows. Nothing is hold-filled, so Repaint is valid only once a
// Pass of this run has computed every pixel, and fails before that. A total
// of zero publishes one version of Working unchanged, the way to mark it
// final.
func (t *TreeImage) Repaint(c *core.Context, total int, span func(worker, lo, hi int) error, cfg core.RoundConfig, markFinal bool) error {
	if t.shown < t.n {
		return fmt.Errorf("%s: repaint before every pixel is computed", t.Out.Name())
	}
	return core.DiffusiveRounds(c, t.Out, total, func(fork core.Fork, lo, hi int, publish bool) (*pix.Image, error) {
		if err := fork.Run(lo, hi, span); err != nil || !publish {
			return nil, err
		}
		if fork.Splits(t.Working.H) {
			t.img = t.newVersion()
			if err := fork.Run(0, t.Working.H, t.rowsPart); err != nil {
				return nil, err
			}
		}
		return t.publish(t.Working.W * t.Working.H), nil // nothing to bring up to date
	}, cfg, markFinal)
}

// newVersion allocates the image a split fork copies Working into, band by
// band. A fork that runs whole leaves the copy to publish: a clone does
// not zero the image it then overwrites.
func (t *TreeImage) newVersion() *pix.Image {
	return pix.MustNew(t.Working.W, t.Working.H, t.Working.C)
}

// publish hands the version in flight — Working's clone if no fork copied
// it — to OnSnapshot and returns it.
func (t *TreeImage) publish(processed int) *pix.Image {
	img := t.img
	if img == nil {
		img = t.Working.Clone()
	}
	t.img = nil
	if t.OnSnapshot != nil {
		t.OnSnapshot(processed, img)
	}
	return img
}

// pattern sets the fork's blocks to the stamp that brings Working, the
// hold-filled image of the rounds before from, up to date with rounds
// [from, r). Each point p of a round spreads over the child blocks of its
// tree block that no computed origin claims — at each level below p's side,
// the three beside p's own quadrant — since a claimed child is covered by
// its own origin's spread and an unclaimed one holds no computed pixel.
// Spreads write disjoint blocks, of one round or of several, and whether a
// child is claimed depends only on its residues, so the stamp is one
// pattern of blocks over a tile of the larger spacing, stamped at every
// tile as strided row fills. The tile's origin, a round-0 point, stops at
// the tile's side: every coarser child is another tile's origin.
func (t *TreeImage) pattern(from, r int) {
	lat := t.lat
	tile := max(lat.SX, lat.SY)
	w, h := t.Working.W, t.Working.H
	blocks := t.blocks[:0]
	for m := from; m < r; m++ {
		a, b := lat.Coset(m)
		for y := b; y < min(tile, h); y += lat.SY {
			for x := a; x < min(tile, w); x += lat.SX {
				side := tile
				if x|y != 0 {
					side = (x | y) & -(x | y)
				}
				for s := side / 2; s > 0; s /= 2 {
					for _, d := range [3][2]int{{s, 0}, {0, s}, {s, s}} {
						if lat.Round(x+d[0], y+d[1]) >= r {
							blocks = append(blocks, block{x + d[0], y + d[1], s, x, y})
						}
					}
				}
			}
		}
	}
	t.blocks = blocks
}

// stamp writes the fork's blocks in the tiles of rows [y0, y1), which start
// on a tile row. Every block and the pixel it reads lie in one tile.
func (t *TreeImage) stamp(y0, y1, tile int) {
	w, c, px := t.Working.W, t.Working.C, t.Working.Pix
	for ty := y0; ty < y1; ty += tile {
		for _, q := range t.blocks {
			for y := ty + q.y; y < min(ty+q.y+q.side, y1); y++ {
				fillRow(px, c, (ty+q.sy)*w+q.sx, y*w+q.x, q.side, tile, (y+1)*w)
			}
		}
	}
}

// block is one block of a stamp: the side×side block at (x, y) of a tile
// takes the value of the tile's pixel (sx, sy).
type block struct{ x, y, side, sx, sy int }

// fillRow copies pixel src+i·stride, c samples, over the side pixels from
// dst+i·stride for every i with dst+i·stride < end, clipping each run at
// end: one row of a stamp's block, in every tile along the row.
func fillRow(px []int32, c, src, dst, side, stride, end int) {
	switch {
	case c == 1 && side == 1:
		for ; dst < end; src, dst = src+stride, dst+stride {
			px[dst] = px[src]
		}
	case c == 3 && side == 1:
		for ; dst < end; src, dst = src+stride, dst+stride {
			d, s := 3*dst, 3*src
			px[d], px[d+1], px[d+2] = px[s], px[s+1], px[s+2]
		}
	default:
		for ; dst < end; src, dst = src+stride, dst+stride {
			run := px[dst*c : min(dst+side, end)*c]
			for n := copy(run, px[src*c:src*c+c]); n < len(run); {
				n += copy(run[n:], run[:n])
			}
		}
	}
}
