// Package serve is the deadline-aware serving runtime over internal/core:
// it turns the paper's interrupt-anywhere property (§III-C) into the
// contract a loaded server needs — under pressure, degrade accuracy, not
// availability.
//
// The package has three independent pieces, composed by the caller
// (cmd/anytimed wires all three):
//
//   - Pool: warm automaton pools. core.Automaton.Reset rewinds an
//     automaton's per-run state without reallocating stages, permutation
//     tables, or image storage, so a pool amortizes construction cost
//     across requests: check an entry out with Get, run it, check it back
//     in with Put.
//
//   - Run / RunUntil: deadline and acceptance contracts. Run executes a
//     checked-out automaton and returns the best published snapshot when
//     the deadline fires — never an error merely because time ran out,
//     because an anytime automaton always holds a valid approximation once
//     its first version is published. RunUntil stops at the first snapshot
//     an acceptance predicate admits, polling published versions rather
//     than registering buffer observers (observers are permanent, so a
//     pooled buffer must not accumulate per-request callbacks).
//
//   - Queue / ApplyBudget: admission control and the grant. Queue is a
//     bounded FIFO-fair concurrency limiter — waiters are served strictly
//     in arrival order, and excess load is rejected immediately rather
//     than queued without bound: by count, and by time when the wait
//     ahead would already spend a request's budget. ApplyBudget charges
//     the wait a request did take to its run: the deadline runs from
//     arrival, so under load each request gets less refinement, not a
//     later answer.
//
// Every decision point reports once, as a reqtrace.Event: appended to the
// request's trace when ctx carries one, and handed to the optional
// reqtrace.Sink parameter, which internal/telemetry.ServeHooks binds to the
// process metrics registry.
package serve

import (
	"context"
	"errors"
	"fmt"
	rtrace "runtime/trace"
	"time"

	"anytime/internal/core"
	"anytime/internal/reqtrace"
)

// ErrNoOutput is returned when a run ends without a single published
// snapshot to deliver (for example, the client disconnected before the
// automaton published its first version).
var ErrNoOutput = errors.New("serve: run produced no output")

// Entry is one pooled automaton together with the output buffer requests
// read their snapshots from. Apps expose constructors returning exactly
// this shape (an automaton plus its terminal buffer); intermediate buffers
// stay internal to the app.
type Entry[T any] struct {
	Automaton *core.Automaton
	Out       *core.Buffer[T]
	// Slot, when non-nil, is the entry's request-trace binding point:
	// instrumentation attached once at construction (buffer publish
	// observers, OnReset hooks) reports into whichever trace is currently
	// bound to it. The serving caller Binds the request's trace at checkout
	// and Unbinds after Put; a nil Slot (tracing disabled) costs each
	// observer one pointer check.
	Slot *reqtrace.Slot
}

// Result is the outcome of a Run or RunUntil: the delivered snapshot and
// how the run ended.
type Result[T any] struct {
	// Snapshot is the delivered output. Snapshot.Final reports whether it
	// is the precise output; Snapshot.Version is its accuracy rank within
	// the run.
	Snapshot core.Snapshot[T]
	// Interrupted reports that the automaton was stopped before reaching
	// its precise output — the deadline fired or the acceptance predicate
	// admitted an early snapshot.
	Interrupted bool
	// Elapsed is the wall time from Start to delivery.
	Elapsed time.Duration
}

// Run executes a checked-out entry under a deadline contract and returns
// the best published snapshot available when the contract is met:
//
//   - deadline <= 0: run to the precise output and return it (bit-exact
//     with the app's baseline; the no-knob serving path).
//   - deadline > 0: let the automaton run until the deadline fires, stop
//     it, and return the newest published snapshot. If nothing has been
//     published yet when the deadline fires, Run waits for the first
//     version instead of failing — an anytime request never times out
//     empty-handed once admitted.
//
// Cancelling ctx (client disconnect) stops the automaton and returns
// ctx.Err(). A stage failure is returned as an error. The caller owns the
// entry throughout and must still check it back into its pool afterwards;
// Run always leaves the automaton stopped or finished, ready for Reset.
func Run[T any](ctx context.Context, e Entry[T], deadline time.Duration, sink reqtrace.Sink) (Result[T], error) {
	r, err := begin(ctx, e, deadline, sink)
	if err != nil {
		return Result[T]{}, err
	}
	var fired <-chan time.Time // nil without a deadline: never fires
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		fired = timer.C
	}
	select {
	case <-e.Automaton.Done():
		// Finishing on its own before the deadline delivered the precise
		// output (or failed); it is no interruption.
		return r.ended(nil, false)
	case <-ctx.Done():
		return r.ended(ctx.Err(), false)
	case <-fired:
		r.tr.DeadlineFired(deadline)
		// Contract: deliver *something*. If the automaton has yet to
		// publish its first version, wait for it (bounded by the client's
		// context) before interrupting.
		if _, ok := e.Out.Peek(); ok {
			return r.ended(nil, true)
		}
		wait, stop := r.whileRunning(ctx)
		_, err := e.Out.WaitNewer(wait, 0)
		stop()
		if err != nil {
			err = ctx.Err() // nil when the automaton ended: ended reports how
		}
		return r.ended(err, true)
	}
}

// RunUntil executes a checked-out entry until accept admits a published
// snapshot (or the automaton reaches its precise output, whichever comes
// first), then stops the automaton and returns that snapshot. It is the
// pool-safe acceptance knob: snapshots are observed by polling
// Buffer.WaitNewer, not by registering an OnPublish observer, because
// observers are permanent and a pooled buffer serves many requests.
//
// accept runs on the request goroutine between versions.
func RunUntil[T any](ctx context.Context, e Entry[T], accept func(core.Snapshot[T]) bool, sink reqtrace.Sink) (Result[T], error) {
	if accept == nil {
		return Result[T]{}, fmt.Errorf("serve: RunUntil requires an accept predicate")
	}
	r, err := begin(ctx, e, 0, sink)
	if err != nil {
		return Result[T]{}, err
	}
	wait, stop := r.whileRunning(ctx)
	defer stop()
	var last core.Version
	for {
		snap, err := e.Out.WaitNewer(wait, last)
		if err != nil {
			// The client went away, or the automaton ended while we waited:
			// deliver its terminal output, or its failure.
			return r.ended(ctx.Err(), false)
		}
		last = snap.Version
		if snap.Final || accept(snap) {
			e.Automaton.Stop()
			return r.deliver(snap, !snap.Final), nil
		}
	}
}

// run is one Run or RunUntil call in progress: the entry it drives, the
// request's trace and runtime/trace region, and when it started.
type run[T any] struct {
	e      Entry[T]
	tr     *reqtrace.Trace
	region *rtrace.Region // nil when the request is not traced
	sink   reqtrace.Sink
	start  time.Time
}

// begin starts e's automaton, under an "anytime.run" region when the
// request is traced.
func begin[T any](ctx context.Context, e Entry[T], deadline time.Duration, sink reqtrace.Sink) (run[T], error) {
	r := run[T]{e: e, tr: reqtrace.FromContext(ctx), sink: sink}
	if r.tr != nil {
		r.region = rtrace.StartRegion(ctx, "anytime.run")
	}
	r.start = time.Now()
	if err := e.Automaton.Start(ctx); err != nil {
		return r, r.fail(err)
	}
	r.tr.RunStart(deadline)
	return r, nil
}

// whileRunning returns a context that ends with ctx or as soon as the
// automaton ends on its own (precise output or stage failure), so a
// WaitNewer under it wakes when no newer version can come. The caller
// must call stop; the watcher goroutine exits with it.
func (r *run[T]) whileRunning(ctx context.Context) (context.Context, context.CancelFunc) {
	wait, stop := context.WithCancel(ctx)
	done := r.e.Automaton.Done()
	go func() {
		select {
		case <-done:
			stop()
		case <-wait.Done():
		}
	}()
	return wait, stop
}

// ended stops the automaton and closes the run. A non-nil cause (the
// client went away) is the run's failure; otherwise the run delivers the
// newest published snapshot, unless a stage failed or nothing was
// published (ErrNoOutput). interrupted reports that the deadline fired; it
// is dropped when the snapshot is the precise output anyway.
func (r *run[T]) ended(cause error, interrupted bool) (Result[T], error) {
	r.e.Automaton.Stop()
	if cause == nil {
		if err := r.e.Automaton.Err(); err != nil && !errors.Is(err, core.ErrStopped) {
			cause = err
		}
	}
	if cause == nil {
		if snap, ok := r.e.Out.Latest(); ok {
			return r.deliver(snap, interrupted && !snap.Final), nil
		}
		cause = ErrNoOutput
	}
	return Result[T]{}, r.fail(cause)
}

// fail ends the region and records err on the trace before it is returned.
func (r *run[T]) fail(err error) error {
	if r.region != nil {
		r.region.End()
	}
	r.tr.Error(err.Error())
	return err
}

// deliver ends the region and reports the hand-over — the one run.finish
// event both the trace and the delivery metrics are read from.
func (r *run[T]) deliver(snap core.Snapshot[T], interrupted bool) Result[T] {
	res := Result[T]{Snapshot: snap, Interrupted: interrupted, Elapsed: time.Since(r.start)}
	if r.region != nil {
		r.region.End()
	}
	r.sink.Send(r.tr.RunFinish(core.Outcome(r.e.Automaton.Err()), snap.Final, res.Elapsed))
	return res
}
