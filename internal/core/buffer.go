// Package core implements the Anytime Automaton computation model of
// San Miguel & Enright Jerger (ISCA 2016, §III): an approximate application
// is decomposed into computation stages connected by single-writer output
// buffers and executed as a parallel pipeline. Each stage publishes
// intermediate outputs of increasing accuracy; the automaton guarantees the
// precise output is eventually published, and it can be paused or stopped at
// any moment while the output buffers still hold valid approximations.
//
// The package enforces the paper's three structural properties:
//
//   - Property 1 (purity): stage step functions see only their input
//     snapshots and their own working output.
//   - Property 2 (single writer): each stage owns exactly one Buffer.
//   - Property 3 (atomic publish): buffers expose immutable versioned
//     snapshots; a reader never observes a torn write.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Version numbers the successive snapshots published to a Buffer, starting
// at 1. Versions are strictly increasing per buffer.
type Version uint64

// Snapshot is one immutable published output of a stage. Final marks the
// precise output: the last version the stage will ever publish.
type Snapshot[T any] struct {
	Value   T
	Version Version
	Final   bool
}

// ErrFinalized is returned when a stage attempts to publish past its final
// (precise) output.
var ErrFinalized = errors.New("core: buffer already holds its final output")

// snapArenaCap bounds the publisher-private snapshot arena. Chunks double
// from 1 up to this size, so a long-lived buffer amortizes its per-publish
// allocation to 1/snapArenaCap (reported as 0 allocs/op) while a buffer
// that publishes only a handful of versions allocates only what it uses.
// The flip side is retention: up to ~2×snapArenaCap recent snapshot values
// stay reachable through the live chunk until the publisher cycles past
// them. Keep the cap small enough that retaining that many values of a
// large T (a full image, say) stays cheap next to the pipeline's working
// state.
const snapArenaCap = 8

// Buffer is the versioned single-writer multi-reader output buffer of an
// anytime computation stage. The owning stage publishes successive
// approximations with Publish; any number of readers take consistent
// snapshots with Latest or block for fresher ones with WaitNewer.
//
// The hot paths are wait-free: Latest and Final are single atomic loads of
// an immutable snapshot cell (Property 3), and Publish is an atomic store
// under the single-writer invariant (Property 2). Blocking WaitNewer
// readers arm a wakeup channel with a compare-and-swap; a publish with no
// blocked reader neither allocates nor closes anything.
//
// If the stage keeps mutating a working value between publishes, it must
// construct the Buffer with a clone function so each published snapshot is
// an independent copy (Property 3). Stages that publish freshly built
// values each time may pass nil.
type Buffer[T any] struct {
	name  string
	clone func(T) T

	// cur points at the latest published snapshot (nil until the first
	// publish). Cells are immutable once stored: the publisher never writes
	// a cell after it becomes visible, so a reader dereferences without
	// synchronization beyond the atomic load.
	cur atomic.Pointer[Snapshot[T]]

	// waiter holds the wakeup channel armed by blocked WaitNewer callers,
	// nil when nobody is blocked. The publisher swaps it out and closes it
	// on every publish that finds one armed.
	waiter atomic.Pointer[chan struct{}]

	// consumed is the highest version a reader has taken through Latest or
	// WaitNewer — the demand signal PublishOnDemand stages poll through
	// Demanded.
	consumed atomic.Uint64

	// observers is the immutable registered-observer slice, swapped
	// wholesale on registration so Publish reads it with one atomic load.
	observers atomic.Pointer[[]func(Snapshot[T])]
	regMu     sync.Mutex

	// arena is the publisher-private snapshot chunk (Property 2: only the
	// owning stage touches it). Cells are handed out in order and never
	// reused, so published snapshots stay immutable; exhausted chunks are
	// garbage collected once no reader holds a cell in them.
	arena     []Snapshot[T]
	arenaNext int

	// errFinalized is the publish-past-final error, preformatted at
	// construction: Publish is held to an alloc budget
	// (TestBufferPublishAmortizedAllocFree) and may not call fmt, whose
	// operands box.
	errFinalized error
}

// NewBuffer returns an empty buffer. name labels the buffer in errors and
// diagnostics. clone, if non-nil, deep-copies values at publish time.
func NewBuffer[T any](name string, clone func(T) T) *Buffer[T] {
	return &Buffer[T]{
		name:         name,
		clone:        clone,
		errFinalized: fmt.Errorf("%w (buffer %q)", ErrFinalized, name),
	}
}

// Name reports the buffer's label.
func (b *Buffer[T]) Name() string { return b.name }

// OnPublish registers an observer invoked after every publish with the new
// snapshot. Any number of observers may be registered (a Tracer and a
// telemetry sink routinely share a buffer); each is invoked from the
// publishing stage's goroutine, in registration order, and must not block
// for long (it delays the pipeline, exactly as a profiler attached to a
// real automaton would). Observers must be registered before the automaton
// starts.
func (b *Buffer[T]) OnPublish(fn func(Snapshot[T])) {
	if fn == nil {
		return
	}
	b.regMu.Lock()
	defer b.regMu.Unlock()
	var next []func(Snapshot[T])
	if prev := b.observers.Load(); prev != nil {
		next = append(next, *prev...)
	}
	next = append(next, fn)
	b.observers.Store(&next)
}

// nextCell hands out the next arena cell, growing the chunk geometrically
// up to snapArenaCap. Publisher-private; see Buffer.arena.
func (b *Buffer[T]) nextCell() *Snapshot[T] {
	if b.arenaNext == len(b.arena) {
		size := 2 * len(b.arena)
		if size == 0 {
			size = 1
		}
		if size > snapArenaCap {
			size = snapArenaCap
		}
		b.arena = make([]Snapshot[T], size)
		b.arenaNext = 0
	}
	cell := &b.arena[b.arenaNext]
	b.arenaNext++
	return cell
}

// Publish atomically installs v as the next snapshot. final marks v as the
// precise output; no further publishes are allowed after it. Publish
// returns the installed snapshot.
//
// Only the owning stage may call Publish (Property 2); calls are therefore
// sequential, and the fast path is one atomic store plus one atomic swap —
// no lock, and no allocation beyond the amortized snapshot cell.
func (b *Buffer[T]) Publish(v T, final bool) (Snapshot[T], error) {
	if b.clone != nil {
		v = b.clone(v)
	}
	prev := b.cur.Load()
	version := Version(1)
	if prev != nil {
		if prev.Final {
			return Snapshot[T]{}, b.errFinalized
		}
		version = prev.Version + 1
	}
	cell := b.nextCell()
	*cell = Snapshot[T]{Value: v, Version: version, Final: final}
	b.cur.Store(cell)
	// Wake blocked readers, if any. The store above happens before the
	// swap, and WaitNewer re-checks cur after arming, so a waiter either
	// sees this snapshot directly or owns a channel this swap observes.
	if ch := b.waiter.Swap(nil); ch != nil {
		close(*ch)
	}
	if obs := b.observers.Load(); obs != nil {
		for _, observer := range *obs {
			observer(*cell)
		}
	}
	return *cell, nil
}

// Latest returns the most recent snapshot, if any has been published. It is
// a wait-free atomic load; hot readers never contend with the publishing
// stage.
func (b *Buffer[T]) Latest() (Snapshot[T], bool) {
	s := b.cur.Load()
	if s == nil {
		return Snapshot[T]{}, false
	}
	b.markConsumed(s.Version)
	return *s, true
}

// Peek is Latest without registering demand: diagnostics and tests that
// merely inspect the buffer should not make a PublishOnDemand stage build
// fresh snapshots on their account.
func (b *Buffer[T]) Peek() (Snapshot[T], bool) {
	s := b.cur.Load()
	if s == nil {
		return Snapshot[T]{}, false
	}
	return *s, true
}

// Final reports whether the buffer holds its precise output (a wait-free
// load, like Latest).
func (b *Buffer[T]) Final() bool {
	s := b.cur.Load()
	return s != nil && s.Final
}

// markConsumed raises the consumed-version watermark to v.
func (b *Buffer[T]) markConsumed(v Version) {
	for {
		cur := b.consumed.Load()
		if uint64(v) <= cur || b.consumed.CompareAndSwap(cur, uint64(v)) {
			return
		}
	}
}

// Demanded reports whether a fresh publish would have an audience: the
// buffer is empty, an observer is registered, a reader is currently blocked
// in WaitNewer, or the latest snapshot has been consumed by Latest or
// WaitNewer. Demand-driven stages (RoundConfig.Policy == PublishOnDemand)
// poll this to skip building snapshots nobody would look at — the paper's
// consumer "processes whichever output happens to be in the buffer"
// (§III-C1), so an unconsumed version may simply be refreshed later.
func (b *Buffer[T]) Demanded() bool {
	if obs := b.observers.Load(); obs != nil && len(*obs) > 0 {
		return true
	}
	if b.waiter.Load() != nil {
		return true
	}
	s := b.cur.Load()
	return s == nil || b.consumed.Load() >= uint64(s.Version)
}

// Reset rewinds the buffer to its unpublished state so the owning
// automaton can be reused for a new run: the next Publish produces version
// 1 again and clears any finalized state. Registered observers stay
// attached (a pooled pipeline keeps its telemetry across requests), and the
// publisher-private arena keeps handing out unused cells, so snapshots a
// reader retained from the previous run remain immutable.
//
// Reset is part of the warm-pool discipline (internal/serve): it must only
// be called during quiescence — after the automaton has stopped and before
// it is restarted — with no reader blocked in WaitNewer. A reader that is
// blocked anyway is woken and simply blocks again for the new run's first
// version.
func (b *Buffer[T]) Reset() {
	b.cur.Store(nil)
	b.consumed.Store(0)
	// Wake any stale blocked reader so it cannot deadlock against a run
	// that no longer exists; it re-checks cur, sees nothing newer, and
	// re-arms against the next run.
	if ch := b.waiter.Swap(nil); ch != nil {
		close(*ch)
	}
}

// WaitNewer blocks until the buffer holds a snapshot with version greater
// than after, then returns it. Passing after == 0 returns the first
// available snapshot. It returns ctx.Err() if the context is cancelled
// first.
func (b *Buffer[T]) WaitNewer(ctx context.Context, after Version) (Snapshot[T], error) {
	for {
		if s := b.cur.Load(); s != nil && s.Version > after {
			b.markConsumed(s.Version)
			return *s, nil
		}
		// Arm (or join) the wakeup channel, then re-check: a publish that
		// raced ahead of the arm is caught by the re-check, and one that
		// lands after it must observe the armed channel in its swap.
		ch := b.waiter.Load()
		if ch == nil {
			armed := make(chan struct{})
			if !b.waiter.CompareAndSwap(nil, &armed) {
				continue
			}
			ch = &armed
		}
		if s := b.cur.Load(); s != nil && s.Version > after {
			b.markConsumed(s.Version)
			return *s, nil
		}
		select {
		case <-*ch:
		case <-ctx.Done():
			return Snapshot[T]{}, ctx.Err()
		}
	}
}
