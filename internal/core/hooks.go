package core

import "time"

// Hooks is the core's observer interface: a set of optional callbacks the
// automaton invokes at its lifecycle and scheduling edges, in the style of
// net/http/httptrace.ClientTrace. It exists so an external telemetry layer
// can watch a running automaton without core importing it; any nil field is
// skipped, and an automaton with no hooks attached pays only a nil pointer
// check on its hot paths.
//
// All callbacks are invoked synchronously from pipeline goroutines and must
// be cheap and safe for concurrent use (every stage goroutine reports
// through the same Hooks value).
type Hooks struct {
	// AutomatonStart fires from Start after the stage goroutines launch.
	AutomatonStart func(stages int)
	// AutomatonFinish fires once every stage has exited, and before Done
	// closes: when Wait returns, it has returned. outcome is the terminal
	// error as Wait would report it: nil for a precise finish, ErrStopped
	// for an interruption, the first stage failure otherwise.
	AutomatonFinish func(outcome error, elapsed time.Duration)
	// StageStart fires on the stage's own goroutine before its loop runs.
	StageStart func(stage string)
	// StageFinish fires when the stage loop returns (or panics). err is the
	// loop's error, normalized like Wait: nil on a clean finish, ErrStopped
	// on interruption.
	StageFinish func(stage string, err error, elapsed time.Duration)
	// Checkpoint fires on every Context.Checkpoint call. wait is the time
	// the stage spent blocked at the pause gate — zero in the common
	// unpaused case, where the checkpoint costs one closed-channel receive.
	Checkpoint func(stage string, wait time.Duration)
	// EdgeWait fires on the consumer goroutine of an asynchronous pipeline
	// edge (AsyncConsume) just before it blocks for the next parent
	// snapshot, with the consuming stage, the parent buffer's name, and the
	// version the consumer waits to supersede. Chaos harnesses inject
	// delay/starvation faults here; a telemetry layer can watch how far
	// each child runs behind its parent.
	EdgeWait func(stage, buffer string, after Version)
	// EdgeRecv fires on the consumer goroutine of a synchronous pipeline
	// edge (SyncConsume) just before it receives the next in-flight update
	// from its stream. Like EdgeWait, it is a fault-injection and
	// observation point for the edge's backpressure behavior.
	EdgeRecv func(stage string)
}

// ChainHooks combines several Hooks values into one that invokes every
// non-nil callback in argument order — a telemetry binding and a request
// tracer (or a chaos scheduler) can then share one automaton's single hook
// attachment point. Nil elements are skipped; with zero or one non-nil
// element the input is returned as-is, so chaining preserves the nil-guard
// fast path exactly. Each combined field is set only when at least one
// input sets it, keeping unused instrumentation points at one pointer
// check.
func ChainHooks(hooks ...*Hooks) *Hooks {
	live := hooks[:0:0]
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	out := &Hooks{}
	var starts []func(int)
	var finishes []func(error, time.Duration)
	var stageStarts []func(string)
	var stageFinishes []func(string, error, time.Duration)
	var checkpoints []func(string, time.Duration)
	var edgeWaits []func(string, string, Version)
	var edgeRecvs []func(string)
	for _, h := range live {
		if h.AutomatonStart != nil {
			starts = append(starts, h.AutomatonStart)
		}
		if h.AutomatonFinish != nil {
			finishes = append(finishes, h.AutomatonFinish)
		}
		if h.StageStart != nil {
			stageStarts = append(stageStarts, h.StageStart)
		}
		if h.StageFinish != nil {
			stageFinishes = append(stageFinishes, h.StageFinish)
		}
		if h.Checkpoint != nil {
			checkpoints = append(checkpoints, h.Checkpoint)
		}
		if h.EdgeWait != nil {
			edgeWaits = append(edgeWaits, h.EdgeWait)
		}
		if h.EdgeRecv != nil {
			edgeRecvs = append(edgeRecvs, h.EdgeRecv)
		}
	}
	if len(starts) > 0 {
		out.AutomatonStart = func(stages int) {
			for _, fn := range starts {
				fn(stages)
			}
		}
	}
	if len(finishes) > 0 {
		out.AutomatonFinish = func(outcome error, elapsed time.Duration) {
			for _, fn := range finishes {
				fn(outcome, elapsed)
			}
		}
	}
	if len(stageStarts) > 0 {
		out.StageStart = func(stage string) {
			for _, fn := range stageStarts {
				fn(stage)
			}
		}
	}
	if len(stageFinishes) > 0 {
		out.StageFinish = func(stage string, err error, elapsed time.Duration) {
			for _, fn := range stageFinishes {
				fn(stage, err, elapsed)
			}
		}
	}
	if len(checkpoints) > 0 {
		out.Checkpoint = func(stage string, wait time.Duration) {
			for _, fn := range checkpoints {
				fn(stage, wait)
			}
		}
	}
	if len(edgeWaits) > 0 {
		out.EdgeWait = func(stage, buffer string, after Version) {
			for _, fn := range edgeWaits {
				fn(stage, buffer, after)
			}
		}
	}
	if len(edgeRecvs) > 0 {
		out.EdgeRecv = func(stage string) {
			for _, fn := range edgeRecvs {
				fn(stage)
			}
		}
	}
	return out
}

// SetHooks attaches hooks to the automaton. It must be called before Start;
// calling it later is a no-op. A nil value detaches nothing and is ignored
// on the hot paths exactly like an unset field.
func (a *Automaton) SetHooks(h *Hooks) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state != stateIdle {
		return
	}
	a.hooks = h
}
