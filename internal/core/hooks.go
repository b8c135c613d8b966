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
