package reqtrace

import "sync/atomic"

// Slot is the binding point between long-lived instrumentation and
// short-lived requests. A pooled automaton's observers — buffer publish
// callbacks and OnReset — are attached once, at construction, and survive
// Reset (observers are permanent); the Slot gives them a place to look up
// which request currently owns the automaton. The serving layer
// Binds the active request's trace at checkout and Unbinds it after
// check-in; between requests (and whenever tracing is disabled, where the
// Slot itself is nil) every report hits the unbound fast path: one atomic
// load, no allocation.
//
// Bind/Unbind follow the pool's ownership discipline — exactly one request
// owns a checked-out entry — so they never race each other; reports race
// only with the load, which is the point of the atomic.
type Slot struct {
	cur atomic.Pointer[Trace]
}

// Bind attaches t as the slot's active trace. Nil slots ignore the call.
func (s *Slot) Bind(t *Trace) {
	if s == nil {
		return
	}
	s.cur.Store(t)
}

// Unbind detaches the active trace. Nil slots ignore the call.
func (s *Slot) Unbind() {
	if s == nil {
		return
	}
	s.cur.Store(nil)
}

// Trace returns the currently bound trace, nil when unbound (or the slot
// itself is nil) — and a nil *Trace swallows every recording call.
func (s *Slot) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.cur.Load()
}

// Publish reports one buffer publish into the bound trace, if any. This is
// the publish hot path's instrumentation site: unbound, it is one atomic
// load and a branch, with zero allocations.
func (s *Slot) Publish(buffer string, version uint64, bytes int, final bool) {
	if s == nil {
		return
	}
	if t := s.cur.Load(); t != nil {
		t.Publish(buffer, version, bytes, final)
	}
}

// OnReset reports the automaton's per-run rewind into the bound trace.
// Register it with core.Automaton.OnReset at construction.
func (s *Slot) OnReset() {
	if s == nil {
		return
	}
	if t := s.cur.Load(); t != nil {
		t.Reset()
	}
}
