package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStopped is the error stages observe at a Checkpoint after the
// automaton has been stopped. Automaton.Wait returns it when execution was
// interrupted before the precise output was reached — which, in the anytime
// model, is a legitimate outcome, not a failure: the output buffers hold the
// latest published approximations.
var ErrStopped = errors.New("core: automaton stopped")

// Outcome folds a run's terminal error (Automaton.Err, Wait) into the
// stable outcome vocabulary traces and metrics label runs with: precise,
// stopped, failed.
func Outcome(err error) string {
	switch {
	case err == nil:
		return "precise"
	case errors.Is(err, ErrStopped):
		return "stopped"
	default:
		return "failed"
	}
}

type automatonState int

const (
	stateIdle automatonState = iota
	stateRunning
	stateDone
)

// Automaton supervises the parallel pipeline: it owns the stage goroutines,
// the pause gate, and cancellation. Build one with New, register each
// stage's loop with AddStage, then Start it. The automaton finishes either
// when every stage has returned (the precise output has been reached) or
// when Stop interrupts it.
type Automaton struct {
	gate *gate

	mu      sync.Mutex
	state   automatonState
	stages  []registeredStage
	cancel  context.CancelFunc
	done    chan struct{}
	err     error
	hooks   *Hooks
	onReset []func()
	onSeed  []func(seed any, version Version) error

	wg sync.WaitGroup
}

type registeredStage struct {
	name string
	fn   func(*Context) error
}

// New returns an empty automaton, ready for stage registration.
func New() *Automaton {
	return &Automaton{
		gate: newGate(),
		done: make(chan struct{}),
	}
}

// AddStage registers a stage loop under the given name. fn runs on its own
// goroutine once the automaton starts; it should publish to exactly one
// Buffer (Property 2) and call Context.Checkpoint between units of work so
// pause and stop take effect promptly. Stages must be added before Start.
func (a *Automaton) AddStage(name string, fn func(*Context) error) error {
	if fn == nil {
		return fmt.Errorf("core: stage %q has nil function", name)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state != stateIdle {
		return fmt.Errorf("core: cannot add stage %q after start", name)
	}
	a.stages = append(a.stages, registeredStage{name: name, fn: fn})
	return nil
}

// Start launches every registered stage. The provided context bounds the
// whole execution: cancelling it is equivalent to Stop.
func (a *Automaton) Start(ctx context.Context) error {
	a.mu.Lock()
	if a.state != stateIdle {
		a.mu.Unlock()
		return errors.New("core: automaton already started")
	}
	if len(a.stages) == 0 {
		a.mu.Unlock()
		return errors.New("core: automaton has no stages")
	}
	runCtx, cancel := context.WithCancel(ctx)
	a.cancel = cancel
	a.state = stateRunning
	stages := a.stages
	hooks := a.hooks
	done := a.done // capture: Reset swaps the field for the next run
	a.mu.Unlock()

	var begin time.Time
	if hooks != nil {
		begin = time.Now()
		if hooks.AutomatonStart != nil {
			hooks.AutomatonStart(len(stages))
		}
	}
	a.wg.Add(len(stages))
	for _, s := range stages {
		go func() {
			defer a.wg.Done()
			sc := &Context{ctx: runCtx, a: a, name: s.name, hooks: hooks}
			var stageBegin time.Time
			if hooks != nil {
				stageBegin = time.Now()
				if hooks.StageStart != nil {
					hooks.StageStart(s.name)
				}
			}
			err := runStage(s, sc)
			if hooks != nil && hooks.StageFinish != nil {
				hooks.StageFinish(s.name, normalizeStop(err), time.Since(stageBegin))
			}
			if err != nil {
				a.recordError(s.name, err)
			}
		}()
	}
	go func() {
		a.wg.Wait()
		a.mu.Lock()
		err := a.err
		a.mu.Unlock()
		cancel()
		// The finish hook lands before Done closes, so a caller returning
		// from Wait — or resetting a pooled automaton — sees the run's
		// finish recorded.
		if hooks != nil && hooks.AutomatonFinish != nil {
			hooks.AutomatonFinish(err, time.Since(begin))
		}
		a.mu.Lock()
		a.state = stateDone
		a.mu.Unlock()
		close(done)
	}()
	return nil
}

// runStage executes one stage loop, converting a panic into a stage
// failure: a panicking stage must bring the automaton down as an error, not
// kill the whole process — the other stages' output buffers still hold
// valid approximations.
func runStage(s registeredStage, sc *Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return s.fn(sc)
}

// normalizeStop folds the stop-shaped errors into ErrStopped, the way Wait
// reports them.
func normalizeStop(err error) error {
	if err != nil && isStop(err) {
		return ErrStopped
	}
	return err
}

func (a *Automaton) recordError(stage string, err error) {
	if isStop(err) {
		err = ErrStopped
	} else {
		err = fmt.Errorf("core: stage %q: %w", stage, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Keep the first real failure; a real failure outranks ErrStopped.
	switch {
	case a.err == nil:
		a.err = err
	case errors.Is(a.err, ErrStopped) && !errors.Is(err, ErrStopped):
		a.err = err
	}
	// A stage failure must bring the pipeline down rather than hang its
	// consumers, and must not leave siblings blocked at a pause gate.
	if !errors.Is(err, ErrStopped) {
		if a.cancel != nil {
			a.cancel()
		}
		a.gate.resume()
	}
}

func isStop(err error) bool {
	return errors.Is(err, ErrStopped) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Pause suspends progress: every stage blocks at its next Checkpoint.
// Published snapshots remain readable while paused — the interruptibility
// the model is named for. Pausing an idle or finished automaton is a no-op
// that still takes effect if it is later started.
func (a *Automaton) Pause() { a.gate.pause() }

// Resume releases a Pause.
func (a *Automaton) Resume() { a.gate.resume() }

// Paused reports whether the pause gate is currently closed.
func (a *Automaton) Paused() bool { return a.gate.paused() }

// Stop interrupts execution and waits for every stage to exit. The output
// buffers keep their latest snapshots. Stopping an already-finished
// automaton is a no-op.
func (a *Automaton) Stop() {
	a.mu.Lock()
	cancel := a.cancel
	started := a.state != stateIdle
	done := a.done
	a.mu.Unlock()
	if !started {
		return
	}
	if cancel != nil {
		cancel()
	}
	a.gate.resume() // a paused stage must be released to observe the stop
	<-done
}

// OnReset registers fn to run during Reset, after the automaton's own
// control state has been rewound. Applications register the rewinding of
// their per-run state here — output Buffer.Reset, snapshotter masks,
// worker-private accumulators — so a pooled automaton can be checked out
// again without reallocating stages, permutations, or arenas. Hooks run in
// registration order on the resetting goroutine; nil is ignored.
func (a *Automaton) OnReset(fn func()) {
	if fn == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onReset = append(a.onReset, fn)
}

// Reset rewinds a finished (or never-started) automaton back to idle so it
// can be started again: the registered stages, attached hooks, and OnReset
// callbacks are kept; the terminal error, cancellation, done channel, and a
// pending pause are cleared; then every OnReset hook runs. Resetting a
// running automaton is an error — Stop it first.
//
// Reset is the warm-pool primitive of internal/serve: construction cost
// (DAG building, permutation tables, image arenas) is paid once, and each
// reuse pays only this rewind.
func (a *Automaton) Reset() error {
	a.mu.Lock()
	if a.state == stateRunning {
		a.mu.Unlock()
		return errors.New("core: cannot reset a running automaton")
	}
	a.state = stateIdle
	a.err = nil
	a.cancel = nil
	a.done = make(chan struct{})
	hooks := append([]func(){}, a.onReset...)
	a.mu.Unlock()
	// A pause requested during (or after) the previous run must not leak
	// into the next one.
	a.gate.resume()
	for _, fn := range hooks {
		fn()
	}
	return nil
}

// Done returns a channel closed when every stage has exited. Reset replaces
// the channel, so a reused automaton's callers must take Done again after
// each checkout rather than caching it across runs.
func (a *Automaton) Done() <-chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.done
}

// Wait blocks until every stage has exited. It returns nil if the automaton
// ran to its precise output, ErrStopped if it was interrupted, or the first
// stage failure otherwise.
func (a *Automaton) Wait() error {
	<-a.Done()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Context is the per-stage execution context handed to stage loops.
type Context struct {
	ctx   context.Context
	a     *Automaton
	name  string
	hooks *Hooks
}

// Name reports the stage's registered name.
func (c *Context) Name() string { return c.name }

// Context returns the cancellation context bounding this execution.
func (c *Context) Context() context.Context { return c.ctx }

// Checkpoint is the stage's cooperation point: it blocks while the
// automaton is paused and returns ErrStopped once it has been stopped.
// Stage loops should call it between units of work.
func (c *Context) Checkpoint() error {
	if c.ctx.Err() != nil {
		return ErrStopped
	}
	h := c.hooks
	if h == nil || h.Checkpoint == nil {
		if err := c.a.gate.wait(c.ctx); err != nil {
			return ErrStopped
		}
		return nil
	}
	// Hooked path: report the time spent blocked at the pause gate, paying
	// for timestamps only when the gate is actually closed.
	if c.a.gate.tryWait() {
		h.Checkpoint(c.name, 0)
		return nil
	}
	begin := time.Now()
	err := c.a.gate.wait(c.ctx)
	h.Checkpoint(c.name, time.Since(begin))
	if err != nil {
		return ErrStopped
	}
	return nil
}

// gate implements pause/resume as a swap-on-pause closed channel.
type gate struct {
	mu   sync.Mutex
	ch   chan struct{} // closed while running; open (blocking) while paused
	on   bool          // paused?
	hint atomic.Bool   // mirrors on; a lock-free poll for batched loops
}

func newGate() *gate {
	g := &gate{ch: make(chan struct{})}
	close(g.ch)
	return g
}

func (g *gate) pause() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.on {
		g.on = true
		g.hint.Store(true)
		g.ch = make(chan struct{})
	}
}

func (g *gate) resume() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.on {
		g.on = false
		g.hint.Store(false)
		close(g.ch)
	}
}

// pauseHint reports, without taking the gate lock, whether a pause has been
// requested. It may trail pause/resume by a moment; callers use it to decide
// when to fall back to a full Checkpoint, which gives the authoritative
// answer.
func (g *gate) pauseHint() bool { return g.hint.Load() }

func (g *gate) paused() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.on
}

// tryWait reports whether the gate is open without blocking.
func (g *gate) tryWait() bool {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func (g *gate) wait(ctx context.Context) error {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Err reports the automaton's terminal error without blocking: nil while
// running or after a clean finish, ErrStopped after an interruption, or the
// first stage failure.
func (a *Automaton) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}
