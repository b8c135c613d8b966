// Package anytime is the public API of this implementation of the Anytime
// Automaton computation model (Joshua San Miguel and Natalie Enright
// Jerger, "The Anytime Automaton", ISCA 2016).
//
// An anytime automaton executes an approximate application as a parallel
// pipeline of anytime computation stages. Each stage publishes intermediate
// outputs of increasing accuracy into a versioned single-writer Buffer; the
// automaton guarantees that the final, bit-precise output is eventually
// published, and it can be paused or stopped at any moment while its output
// buffers still hold valid approximations.
//
// # Building an automaton
//
//	a := anytime.New()
//	out := anytime.NewBuffer[*Result]("out", cloneResult)
//	a.AddStage("compute", func(c *anytime.Context) error {
//	    return anytime.Diffusive(c, out, total, apply, snapshot, anytime.RoundConfig{})
//	})
//	a.Start(ctx)
//	...
//	a.Stop()                  // or a.Wait() for the precise output
//	snap, _ := out.Latest()   // always a valid approximation
//
// Three stage shapes cover the paper's constructions: Iterative re-executes
// a computation at increasing accuracy (§III-B1); Diffusive applies
// permuted in-place updates so that no work is redundant (§III-B2);
// AsyncConsume chains stages into an asynchronous pipeline (§III-C1), and
// Stream/SyncConsume into a synchronous one for distributive consumers
// (§III-C2). Sampling permutations (sequential, N-dimensional tree,
// LFSR pseudo-random) come from the same package, as do input/output
// sampling stage builders and SNR accuracy metrics.
//
// The packages under internal/apps implement the paper's five evaluation
// benchmarks on top of this API, and internal/harness regenerates every
// figure of the paper's evaluation; see DESIGN.md and EXPERIMENTS.md.
package anytime

import (
	"context"
	"fmt"
	"time"

	"anytime/internal/core"
	"anytime/internal/serve"
)

// Version numbers the successive snapshots published to a Buffer.
type Version = core.Version

// Snapshot is one immutable published output of a stage.
type Snapshot[T any] = core.Snapshot[T]

// Buffer is the versioned single-writer output buffer of an anytime stage
// (paper Properties 2 and 3).
type Buffer[T any] = core.Buffer[T]

// Automaton supervises the parallel pipeline of stages.
type Automaton = core.Automaton

// Context is the per-stage execution context; stages call its Checkpoint
// between units of work so Pause and Stop take effect promptly.
type Context = core.Context

// RoundConfig tunes a diffusive stage's publish granularity, worker count,
// and publish policy.
type RoundConfig = core.RoundConfig

// PublishPolicy selects when a diffusive stage constructs and publishes a
// round snapshot (§III-B2 granularity versus §IV-C overheads).
type PublishPolicy = core.PublishPolicy

const (
	// PublishEveryRound publishes after every round — the paper's default
	// granularity model.
	PublishEveryRound = core.PublishEveryRound
	// PublishOnDemand skips snapshot construction while nobody has consumed
	// the previous version (§III-C1: the consumer "processes whichever
	// output happens to be in the buffer").
	PublishOnDemand = core.PublishOnDemand
)

// Update is one diffusive update flowing through a synchronous edge.
type Update[X any] = core.Update[X]

// Stream is the synchronous pipeline edge between a diffusive producer and
// a distributive consumer.
type Stream[X any] = core.Stream[X]

// ErrStopped is returned by Automaton.Wait when execution was interrupted
// before the precise output; the output buffers hold the latest
// approximations.
var ErrStopped = core.ErrStopped

// ErrFinalized is returned when publishing past a buffer's final output.
var ErrFinalized = core.ErrFinalized

// New returns an empty automaton ready for stage registration.
func New() *Automaton { return core.New() }

// NewBuffer returns an empty versioned buffer. clone, if non-nil,
// deep-copies values at publish time so readers never alias the stage's
// working state.
func NewBuffer[T any](name string, clone func(T) T) *Buffer[T] {
	return core.NewBuffer[T](name, clone)
}

// NewStream returns a synchronous edge whose buffer holds up to capacity
// in-flight updates.
func NewStream[X any](capacity int) (*Stream[X], error) {
	return core.NewStream[X](capacity)
}

// Iterative runs the intermediate computations f_1 … f_n in order,
// publishing each result; the last pass is the precise output (§III-B1).
func Iterative[T any](c *Context, out *Buffer[T], passes []func() (T, error)) error {
	return core.Iterative(c, out, passes)
}

// Diffusive executes total in-place update steps in publish rounds,
// publishing an approximate snapshot after every round and the precise
// output after the last (§III-B2).
func Diffusive[T any](c *Context, out *Buffer[T], total int, apply func(pos int) error, snapshot func(processed int) (T, error), cfg RoundConfig) error {
	return core.Diffusive(c, out, total, apply, snapshot, cfg)
}

// DiffusiveWorkers is Diffusive with the executing worker's index exposed
// to apply, for worker-private accumulators (§IV-C1).
func DiffusiveWorkers[T any](c *Context, out *Buffer[T], total int, apply func(worker, pos int) error, snapshot func(processed int) (T, error), cfg RoundConfig) error {
	return core.DiffusiveWorkers(c, out, total, apply, snapshot, cfg)
}

// DiffusivePass is DiffusiveWorkers with caller control over whether the
// pass's last snapshot is the buffer's final output — required when an
// anytime child re-runs one pass per consumed parent snapshot.
func DiffusivePass[T any](c *Context, out *Buffer[T], total int, apply func(worker, pos int) error, snapshot func(processed int) (T, error), cfg RoundConfig, markFinal bool) error {
	return core.DiffusivePass(c, out, total, apply, snapshot, cfg, markFinal)
}

// AsyncConsume implements the child side of an asynchronous pipeline edge
// (§III-C1): fn runs on successive parent snapshots, skipping stale ones,
// and always runs on the parent's final snapshot.
func AsyncConsume[I any](c *Context, in *Buffer[I], fn func(snap Snapshot[I]) error) error {
	return core.AsyncConsume(c, in, fn)
}

// SyncConsume implements the consumer side of a synchronous edge (§III-C2):
// fold processes every update exactly once, in order.
func SyncConsume[X any](c *Context, in *Stream[X], fold func(u Update[X]) error) error {
	return core.SyncConsume(c, in, fold)
}

// StopWhen starts a and stops it as soon as a published snapshot of buf
// satisfies accept — automated whole-output accuracy control (§III-A). It
// returns the accepted snapshot, or the precise one if the automaton
// finishes first. It is the serving runtime's acceptance rule: accept runs
// on the calling goroutine between versions, and cancelling ctx stops the
// automaton and returns ctx.Err().
func StopWhen[T any](ctx context.Context, a *Automaton, buf *Buffer[T], accept func(Snapshot[T]) bool) (Snapshot[T], error) {
	res, err := serve.RunUntil(ctx, serve.Entry[T]{Automaton: a, Out: buf}, accept, nil)
	return res.Snapshot, err
}

// StopAfter starts a and stops it once d elapses unless it finishes first —
// a hard real-time budget (§III-A). It returns the newest snapshot of buf
// published by then, waiting for the first if none has been: the serving
// runtime's deadline rule. d must be positive.
func StopAfter[T any](ctx context.Context, a *Automaton, buf *Buffer[T], d time.Duration) (Snapshot[T], error) {
	if d <= 0 {
		return Snapshot[T]{}, fmt.Errorf("anytime: StopAfter budget %v must be positive", d)
	}
	res, err := serve.Run(ctx, serve.Entry[T]{Automaton: a, Out: buf}, d, nil)
	return res.Snapshot, err
}

// ContractPass is one accuracy level available to a contract-mode stage
// (§II-B distinguishes contract from interruptible anytime algorithms).
type ContractPass[T any] = core.ContractPass[T]

// RunContract executes an iterative stage under a time contract: it runs
// the most accurate pass whose estimated cost fits the budget, then keeps
// upgrading while budget remains. It returns the index of the best pass
// that ran.
func RunContract[T any](c *Context, out *Buffer[T], passes []ContractPass[T], deadline time.Duration) (int, error) {
	return core.RunContract(c, out, passes, deadline)
}
