package sampling

import (
	"fmt"

	"anytime/internal/core"
	"anytime/internal/perm"
	"anytime/internal/pix"
)

// TreeImage is the output side of a tree-sampled diffusive image stage
// (paper §III-B2, Figure 5): output pixels are visited in 2D tree order and
// written into one working image, and every published version shows the
// pixels not yet computed at their nearest computed tree ancestor's value.
// It owns the visit order, the working image, the snapshotter that renders
// it, the output buffer, and the run-to-run state of all four — the app
// supplies only the per-pixel computation, as the span it hands to Pass.
type TreeImage struct {
	// Out is the stage's output buffer.
	Out *core.Buffer[*pix.Image]
	// Working is the image the span writes computed pixels into; pixel
	// index d occupies Working.Pix[d*C : d*C+C].
	Working *pix.Image
	// OnSnapshot, if non-nil, is invoked on the stage goroutine with each
	// round snapshot before it is published, together with the number of
	// output pixels computed so far. Under pix.SnapshotTiles it must not
	// retain img past the call.
	OnSnapshot func(processed int, img *pix.Image)

	ord  perm.Order
	snap *pix.Snapshotter
}

// NewTreeImage builds the output side of a w×h, channels-deep tree-sampled
// stage publishing to a new buffer called bufferName, and registers its
// run-to-run state on a:
//
//   - OnReset rewinds the snapshotter mask and the buffer; the tree order
//     and the working arena are input-independent and reused as they are.
//   - OnSeed accepts a cached output frame — a *pix.Image, or a
//     *pix.SeedFrame carrying the stale tiles of a delta start — as the
//     starting published state. The run still computes every pixel, so its
//     final is bit-identical to a cold run's. A payload of the wrong type or
//     geometry is refused with bufferName leading the error.
func NewTreeImage(a *core.Automaton, bufferName string, w, h, channels, workers int, mode pix.SnapshotMode) (*TreeImage, error) {
	ord, err := perm.Tree2D(h, w)
	if err != nil {
		return nil, err
	}
	working, err := pix.New(w, h, channels)
	if err != nil {
		return nil, err
	}
	snap, err := pix.NewSnapshotter(working, workers, mode)
	if err != nil {
		return nil, err
	}
	t := &TreeImage{
		Out:     core.NewBuffer[*pix.Image](bufferName, nil),
		Working: working,
		ord:     ord,
		snap:    snap,
	}
	a.OnReset(func() {
		snap.Reset()
		t.Out.Reset()
	})
	a.OnSeed(func(seed any, v core.Version) error {
		img, stale, err := pix.AsSeedFrame(seed, w, h, channels)
		if err != nil {
			return fmt.Errorf("%s: %w", bufferName, err)
		}
		img.CloneInto(working)
		if err := snap.Seed(stale); err != nil {
			return err
		}
		first, err := snap.Snapshot()
		if err != nil {
			return err
		}
		return t.Out.Seed(first, v)
	})
	return t, nil
}

// At returns the pixel index (y*w + x) visited at position pos of the tree
// order.
func (t *TreeImage) At(pos int) int { return t.ord.At(pos) }

// Mark records that worker computed pixel idx of Working. The span calls it
// once per pixel it writes; distinct workers may call it concurrently.
func (t *TreeImage) Mark(worker, idx int) { t.snap.Mark(worker, idx) }

// Pass runs one diffusive pass over every pixel: span computes the pixels
// at order positions [lo, hi) — for each, d := t.At(pos), write pixel d of
// Working, t.Mark(worker, d) — and at every round boundary cfg's publish
// policy selects, the hold-filled approximation is published to Out.
// markFinal marks the complete image precise; a stage that repaints the
// image several times passes it on its last pass only.
func (t *TreeImage) Pass(c *core.Context, span func(worker, lo, hi int) error, cfg core.RoundConfig, markFinal bool) error {
	return core.DiffusiveBatch(c, t.Out, t.ord.Len(), span, t.render, cfg, markFinal)
}

// render builds the snapshot of the first processed positions.
func (t *TreeImage) render(processed int) (*pix.Image, error) {
	img, err := t.snap.Snapshot()
	if err != nil {
		return nil, err
	}
	if t.OnSnapshot != nil {
		t.OnSnapshot(processed, img)
	}
	return img, nil
}
