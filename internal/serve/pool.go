package serve

import (
	"context"
	"fmt"
	"sync"

	"anytime/internal/reqtrace"
)

// Pool is a warm pool of resettable automata for one app configuration.
// Get checks an entry out (reusing an idle one when available, building
// fresh otherwise) and Put checks it back in, paying the Reset rewind off
// the next request's critical path. The pool never blocks and never bounds
// concurrency — admission control is the Queue's job; the pool only bounds
// how many idle entries it retains.
//
// Entries must not be shared: exactly one request owns a checked-out entry
// until it is Put back. All methods are safe for concurrent use.
type Pool[T any] struct {
	name  string
	build func() (Entry[T], error)
	sink  reqtrace.Sink

	mu   sync.Mutex
	idle []Entry[T]
}

// NewPool returns a pool retaining at most capacity idle entries, building
// new ones with build. capacity must be positive — a pool that retains
// nothing is just a constructor call. sink, when non-nil, observes every
// checkout and check-in.
func NewPool[T any](name string, capacity int, build func() (Entry[T], error), sink reqtrace.Sink) (*Pool[T], error) {
	if capacity < 1 {
		return nil, fmt.Errorf("serve: pool %q capacity %d must be positive", name, capacity)
	}
	if build == nil {
		return nil, fmt.Errorf("serve: pool %q has no build function", name)
	}
	return &Pool[T]{name: name, build: build, sink: sink, idle: make([]Entry[T], 0, capacity)}, nil
}

// Name reports the pool's label.
func (p *Pool[T]) Name() string { return p.name }

// Warm pre-builds idle entries until the pool holds n (clamped to the
// pool's capacity), so the first requests after startup pay no
// construction cost.
func (p *Pool[T]) Warm(n int) error {
	for {
		p.mu.Lock()
		if len(p.idle) >= n || len(p.idle) == cap(p.idle) {
			p.mu.Unlock()
			return nil
		}
		p.mu.Unlock()
		e, err := p.build()
		if err != nil {
			return err
		}
		p.mu.Lock()
		if len(p.idle) < cap(p.idle) {
			p.idle = append(p.idle, e)
		}
		p.mu.Unlock()
	}
}

// Get checks out an entry: the most recently returned idle one (LIFO, so
// its working set is the warmest) or a freshly built one when the idle set
// is empty. A request trace bound into ctx records the checkout and its
// warm/fresh source.
func (p *Pool[T]) Get(ctx context.Context) (Entry[T], error) {
	tr := reqtrace.FromContext(ctx)
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		e := p.idle[n-1]
		p.idle[n-1] = Entry[T]{} // release the reference
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		p.sink.Send(tr.PoolGet(p.name, true))
		return e, nil
	}
	p.mu.Unlock()
	e, err := p.build()
	if err != nil {
		return Entry[T]{}, err
	}
	p.sink.Send(tr.PoolGet(p.name, false))
	return e, nil
}

// Put checks an entry back in: the automaton is Reset (rewinding buffers,
// snapshot masks, and version numbering — see core.Automaton.Reset) and
// retained for the next Get, unless the pool is already holding its
// capacity of idle entries or the reset fails, in which case the entry is
// discarded. The automaton must be stopped or finished; a Put of a running
// automaton returns the reset error and discards the entry.
//
// A trace still bound to the entry's Slot records the check-in (and, via
// the automaton's OnReset hooks, the reset itself) — so the caller must
// Unbind only after Put, and must do so before sealing the trace.
func (p *Pool[T]) Put(e Entry[T]) error {
	if err := e.Automaton.Reset(); err != nil {
		p.sink.Send(e.Slot.Trace().PoolPut(p.name, false))
		return fmt.Errorf("serve: pool %q check-in: %w", p.name, err)
	}
	p.mu.Lock()
	retained := len(p.idle) < cap(p.idle)
	if retained {
		p.idle = append(p.idle, e)
	}
	p.mu.Unlock()
	p.sink.Send(e.Slot.Trace().PoolPut(p.name, retained))
	return nil
}
