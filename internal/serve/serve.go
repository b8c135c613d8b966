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

	// sink is the observer of the pool the entry was checked out of
	// (Pool.Get stamps it), so the seed helpers report to the same place
	// the checkout did; nil for an entry built outside a pool.
	sink reqtrace.Sink
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
	tr := reqtrace.FromContext(ctx)
	var region *rtrace.Region
	if tr != nil {
		region = rtrace.StartRegion(ctx, "anytime.run")
	}
	start := time.Now()
	if err := e.Automaton.Start(ctx); err != nil {
		return runFail[T](tr, region, err)
	}
	tr.RunStart(deadline)
	done := e.Automaton.Done()
	interrupted := false
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		select {
		case <-done:
		case <-ctx.Done():
			timer.Stop()
			e.Automaton.Stop()
			return runFail[T](tr, region, ctx.Err())
		case <-timer.C:
			interrupted = true
			tr.DeadlineFired(deadline)
			// Contract: deliver *something*. If the automaton has yet to
			// publish its first version, wait for it (bounded by the
			// client's context) before interrupting.
			if _, ok := e.Out.Peek(); !ok {
				if _, err := waitFirst(ctx, e, done); err != nil {
					timer.Stop()
					e.Automaton.Stop()
					return runFail[T](tr, region, err)
				}
			}
		}
		timer.Stop()
	} else {
		select {
		case <-done:
		case <-ctx.Done():
			e.Automaton.Stop()
			return runFail[T](tr, region, ctx.Err())
		}
	}
	e.Automaton.Stop()
	if err := e.Automaton.Err(); err != nil && !errors.Is(err, core.ErrStopped) {
		return runFail[T](tr, region, err)
	}
	snap, ok := e.Out.Latest()
	if !ok {
		return runFail[T](tr, region, ErrNoOutput)
	}
	// A run that finished on its own before the deadline delivered the
	// precise output; only a fired deadline that truly cut work short is an
	// interruption.
	return deliverTraced(sink, tr, region, e.Automaton, snap, interrupted && !snap.Final, start), nil
}

// runFail ends the trace region and records the failure before returning
// it.
func runFail[T any](tr *reqtrace.Trace, region *rtrace.Region, err error) (Result[T], error) {
	if region != nil {
		region.End()
	}
	tr.Error(err.Error())
	return Result[T]{}, err
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
	tr := reqtrace.FromContext(ctx)
	var region *rtrace.Region
	if tr != nil {
		region = rtrace.StartRegion(ctx, "anytime.run")
	}
	start := time.Now()
	if err := e.Automaton.Start(ctx); err != nil {
		return runFail[T](tr, region, err)
	}
	tr.RunStart(0)
	done := e.Automaton.Done()
	// waitCtx unblocks WaitNewer when the automaton finishes on its own
	// (clean precise completion or stage failure), not only on client
	// disconnect.
	waitCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-done:
			cancel()
		case <-waitCtx.Done():
		}
	}()
	var last core.Version
	for {
		snap, err := e.Out.WaitNewer(waitCtx, last)
		if err != nil {
			e.Automaton.Stop()
			if ctx.Err() != nil {
				return runFail[T](tr, region, ctx.Err())
			}
			// The automaton finished while we waited: deliver its terminal
			// output, or its failure.
			if err := e.Automaton.Err(); err != nil && !errors.Is(err, core.ErrStopped) {
				return runFail[T](tr, region, err)
			}
			final, ok := e.Out.Latest()
			if !ok {
				return runFail[T](tr, region, ErrNoOutput)
			}
			return deliverTraced(sink, tr, region, e.Automaton, final, false, start), nil
		}
		last = snap.Version
		if snap.Final || accept(snap) {
			e.Automaton.Stop()
			return deliverTraced(sink, tr, region, e.Automaton, snap, !snap.Final, start), nil
		}
	}
}

// waitFirst blocks for the buffer's first published version, giving up if
// the client disconnects or the automaton dies without publishing.
func waitFirst[T any](ctx context.Context, e Entry[T], done <-chan struct{}) (core.Snapshot[T], error) {
	waitCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-done:
			cancel()
		case <-waitCtx.Done():
		}
	}()
	snap, err := e.Out.WaitNewer(waitCtx, 0)
	if err == nil {
		return snap, nil
	}
	if ctx.Err() != nil {
		return core.Snapshot[T]{}, ctx.Err()
	}
	// Automaton finished: it either published on its way out or failed.
	if snap, ok := e.Out.Peek(); ok {
		return snap, nil
	}
	if aerr := e.Automaton.Err(); aerr != nil && !errors.Is(aerr, core.ErrStopped) {
		return core.Snapshot[T]{}, aerr
	}
	return core.Snapshot[T]{}, ErrNoOutput
}

// deliverTraced ends the run's region and reports the hand-over — the one
// run.finish event both the trace and the delivery metrics are read from.
func deliverTraced[T any](sink reqtrace.Sink, tr *reqtrace.Trace, region *rtrace.Region, a *core.Automaton, snap core.Snapshot[T], interrupted bool, start time.Time) Result[T] {
	res := Result[T]{Snapshot: snap, Interrupted: interrupted, Elapsed: time.Since(start)}
	if region != nil {
		region.End()
	}
	sink.Send(tr.RunFinish(core.Outcome(a.Err()), snap.Final, res.Elapsed))
	return res
}
