// Package sampling builds diffusive anytime stages from data-sampling
// approximations (paper §III-B2, "Data Sampling"). It connects the
// permutations of internal/perm to the execution machinery of
// internal/core:
//
//   - Output sampling (Map): for map-style computations that produce a set
//     of distinct output elements, the output indices are visited in a
//     permuted order, each computed exactly once.
//   - Input sampling (Reduce): for reduction computations with a
//     commutative operator, input elements are consumed in a permuted
//     order into worker-private accumulators; snapshots merge the partials
//     and, for non-idempotent operators, weight them by population/sample
//     size.
//
// An app whose output is an image sampled in 2D tree order (Figure 5)
// starts at TreeImage instead. Its rounds are lattice cosets: it owns the
// order, the working image — kept hold-filled in place by one stamp per
// round, so each version is one copy — the output buffer and their reset and
// seed hooks, and the app writes only the loop over lattice rows.
package sampling

import (
	"fmt"
	"math"

	"anytime/internal/core"
	"anytime/internal/perm"
)

// Map runs an output-sampled diffusive map stage: for each position i of
// ord, apply(ord.At(i)) computes output element ord.At(i) in place, and
// snapshot(processed) publishes the current approximation. With a tree
// permutation this realizes the progressively-increasing-resolution
// sampling of paper Figure 5.
//
// When cfg.Workers > 1, apply must write only to its own output element,
// which map computations do by construction (disjoint-set union).
func Map[T any](c *core.Context, out *core.Buffer[T], ord perm.Order, apply func(dst int) error, snapshot func(processed int) (T, error), cfg core.RoundConfig) error {
	return MapWorkers(c, out, ord,
		func(worker, dst int) error { return apply(dst) },
		snapshot, cfg)
}

// MapWorkers is Map with the executing worker's index exposed to apply, for
// map stages whose element computation reads through worker-private state
// (for example a per-worker approximate storage array).
//
// It runs as a batched diffusive stage: each worker iterates its
// contiguous span of order positions directly, so the per-element overhead
// is one order lookup plus the apply call — not a chain of per-position
// wrappers.
func MapWorkers[T any](c *core.Context, out *core.Buffer[T], ord perm.Order, apply func(worker, dst int) error, snapshot func(processed int) (T, error), cfg core.RoundConfig) error {
	return core.DiffusiveBatch(c, out, ord.Len(),
		func(worker, lo, hi int) error {
			for pos := lo; pos < hi; pos++ {
				if err := apply(worker, ord.At(pos)); err != nil {
					return err
				}
			}
			return nil
		},
		snapshot, cfg, true)
}

// Reduce describes an input-sampled commutative reduction over elements
// 0..n-1 with worker-private partial accumulators of type A.
type Reduce[A any] struct {
	// NewAcc allocates an empty accumulator.
	NewAcc func() A
	// Consume folds input element idx into acc and returns the updated
	// accumulator.
	Consume func(acc A, idx int) A
	// Merge folds src into dst and returns the result. Merge must be
	// commutative and associative across partials.
	Merge func(dst, src A) A
	// Snapshot converts the merged accumulator over the first `processed`
	// of `total` elements into the published value. This is where
	// non-idempotent reductions apply the paper's population weighting
	// O'_i = O_i × n/i. The returned value must not alias live accumulator
	// state (it is published without further cloning).
	Snapshot func(merged A, processed, total int) (A, error)
}

func (r Reduce[A]) validate() error {
	if r.NewAcc == nil || r.Consume == nil || r.Merge == nil || r.Snapshot == nil {
		return fmt.Errorf("sampling: Reduce requires NewAcc, Consume, Merge and Snapshot")
	}
	return nil
}

// Run executes the reduction as a diffusive anytime stage over the given
// visit order, publishing to out after every round and marking the final
// (complete-population) snapshot precise.
func (r Reduce[A]) Run(c *core.Context, out *core.Buffer[A], ord perm.Order, cfg core.RoundConfig) error {
	if err := r.validate(); err != nil {
		return err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	cfg.Workers = workers
	partials := make([]A, workers)
	for w := range partials {
		partials[w] = r.NewAcc()
	}
	total := ord.Len()
	return core.DiffusiveWorkers(c, out, total,
		func(worker, pos int) error {
			partials[worker] = r.Consume(partials[worker], ord.At(pos))
			return nil
		},
		func(processed int) (A, error) {
			merged := r.NewAcc()
			for _, p := range partials {
				merged = r.Merge(merged, p)
			}
			return r.Snapshot(merged, processed, total)
		},
		cfg)
}

// ScaleCount applies the paper's population weighting for non-idempotent
// reductions: it scales a partial count/sum accumulated over `processed`
// elements up to the full population of `total` elements, rounding to
// nearest. ScaleCount(v, 0, total) is 0.
func ScaleCount(v int64, processed, total int) int64 {
	if processed <= 0 || total <= 0 || processed >= total {
		if processed >= total {
			return v
		}
		return 0
	}
	scaled := (float64(v) * float64(total)) / float64(processed)
	return int64(math.RoundToEven(scaled))
}

// ScaleFloat is ScaleCount for floating-point accumulators.
func ScaleFloat(v float64, processed, total int) float64 {
	if processed <= 0 || total <= 0 {
		return 0
	}
	if processed >= total {
		return v
	}
	return v * float64(total) / float64(processed)
}
