package pix

import "fmt"

// Only the frozen benchmark (cmd/anytimebench, its pix.snapshot_clone_us
// and pix.snapshot_tiles_us probes) calls this file. No app publishes
// through a Snapshotter: sampling.TreeImage keeps its image hold-filled in
// place. The file can be deleted whole once the benchmark stops calling it.

// SnapshotMode names how a Snapshotter was asked to render. Both modes
// render the same way now; the mode survives for the benchmark's two
// probes.
type SnapshotMode int

const (
	// SnapshotClone renders every snapshot as a fresh HoldFill image.
	SnapshotClone SnapshotMode = iota
	// SnapshotTiles renders exactly as SnapshotClone does: every snapshot
	// is a fresh, immutable image. That is a full copy, more work than a
	// ring that copied only dirtied tiles, so the benchmark's
	// pix.snapshot_tiles_us reads about what pix.snapshot_clone_us does.
	SnapshotTiles
)

// Snapshotter renders the approximations of a tree-sampled image that is
// filled one marked pixel at a time: every pixel not yet marked shows its
// nearest marked tree ancestor (HoldFill). The owner writes pixel values
// into the working image and calls Mark for each; Snapshot and Reset must
// not run concurrently with Mark.
type Snapshotter struct {
	working *Image
	filled  []bool
}

// NewSnapshotter returns a snapshotter over working. workers is how many
// goroutines may call Mark, and mode how to render; it refuses workers < 1
// and an unknown mode.
func NewSnapshotter(working *Image, workers int, mode SnapshotMode) (*Snapshotter, error) {
	if workers < 1 {
		return nil, fmt.Errorf("pix: snapshotter workers %d must be positive", workers)
	}
	if mode != SnapshotClone && mode != SnapshotTiles {
		return nil, fmt.Errorf("pix: unknown snapshot mode %d", mode)
	}
	return &Snapshotter{working: working, filled: make([]bool, working.W*working.H)}, nil
}

// Mark records that worker w computed pixel idx = y*W + x of the working
// image. Distinct workers may mark distinct pixels concurrently.
func (s *Snapshotter) Mark(w, idx int) { s.filled[idx] = true }

// Snapshot renders HoldFill of the working image under the marked pixels,
// as a fresh image no later call writes.
func (s *Snapshotter) Snapshot() (*Image, error) { return HoldFill(s.working, s.filled) }

// Reset clears the marks for a new run over the same working image, which
// it leaves alone: HoldFill reads only marked pixels.
func (s *Snapshotter) Reset() { clear(s.filled) }
