package serve

import (
	"context"
	"sync"
	"testing"

	"anytime/internal/core"
	"anytime/internal/reqtrace"
)

// idleLen reports the number of entries checked in to p.
func idleLen[T any](p *Pool[T]) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// countingEntry builds a trivial one-stage automaton publishing 1, 2, 3
// and counts constructions, standing in for an expensive app pipeline.
func countingBuilder(builds *int) func() (Entry[int], error) {
	return func() (Entry[int], error) {
		*builds++
		out := core.NewBuffer[int]("pool-test", nil)
		a := core.New()
		err := a.AddStage("count", func(c *core.Context) error {
			for i := 1; i <= 3; i++ {
				if err := c.Checkpoint(); err != nil {
					return err
				}
				if _, err := out.Publish(i, i == 3); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return Entry[int]{}, err
		}
		a.OnReset(out.Reset)
		return Entry[int]{Automaton: a, Out: out}, nil
	}
}

func TestPoolValidation(t *testing.T) {
	build := countingBuilder(new(int))
	if _, err := NewPool("p", 0, build, nil); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := NewPool[int]("p", 1, nil, nil); err == nil {
		t.Fatal("nil build accepted")
	}
}

func TestPoolReuseAmortizesConstruction(t *testing.T) {
	builds := 0
	var events []bool
	p, err := NewPool("p", 2, countingBuilder(&builds),
		onKind(reqtrace.KindPoolGet, func(e reqtrace.Event) { events = append(events, e.Flag) }))
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 5; cycle++ {
		e, err := p.Get(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), e, 0, nil)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if res.Snapshot.Value != 3 || !res.Snapshot.Final || res.Interrupted {
			t.Fatalf("cycle %d: result %+v", cycle, res)
		}
		if err := p.Put(e); err != nil {
			t.Fatalf("cycle %d: put: %v", cycle, err)
		}
	}
	if builds != 1 {
		t.Fatalf("built %d automata across 5 sequential requests, want 1", builds)
	}
	if len(events) != 5 || events[0] || !events[4] {
		t.Fatalf("PoolGet warm events = %v", events)
	}
	if idleLen(p) != 1 {
		t.Fatalf("idle = %d, want 1", idleLen(p))
	}
}

func TestPoolWarmPrebuilds(t *testing.T) {
	builds := 0
	p, err := NewPool("p", 3, countingBuilder(&builds), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Warm(2); err != nil {
		t.Fatal(err)
	}
	if builds != 2 || idleLen(p) != 2 {
		t.Fatalf("warm built %d, idle %d; want 2, 2", builds, idleLen(p))
	}
	// Warm clamps at capacity.
	if err := p.Warm(10); err != nil {
		t.Fatal(err)
	}
	if builds != 3 || idleLen(p) != 3 {
		t.Fatalf("warm built %d, idle %d; want 3, 3", builds, idleLen(p))
	}
	e, err := p.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if builds != 3 {
		t.Fatalf("warm pool built fresh on Get (builds = %d)", builds)
	}
	if err := p.Put(e); err != nil {
		t.Fatal(err)
	}
}

func TestPoolDiscardsBeyondCapacity(t *testing.T) {
	builds := 0
	var retained []bool
	p, err := NewPool("p", 1, countingBuilder(&builds),
		onKind(reqtrace.KindPoolPut, func(e reqtrace.Event) { retained = append(retained, e.Flag) }))
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(b); err != nil {
		t.Fatal(err)
	}
	if idleLen(p) != 1 {
		t.Fatalf("idle = %d, want 1", idleLen(p))
	}
	if len(retained) != 2 || !retained[0] || retained[1] {
		t.Fatalf("PoolPut retained events = %v, want [true false]", retained)
	}
}

func TestPoolPutRunningAutomatonFails(t *testing.T) {
	block := make(chan struct{})
	p, err := NewPool("p", 1, func() (Entry[int], error) {
		out := core.NewBuffer[int]("hang", nil)
		a := core.New()
		if err := a.AddStage("hang", func(c *core.Context) error {
			<-block
			return nil
		}); err != nil {
			return Entry[int]{}, err
		}
		return Entry[int]{Automaton: a, Out: out}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Automaton.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(e); err == nil {
		t.Fatal("Put of a running automaton succeeded")
	}
	if idleLen(p) != 0 {
		t.Fatalf("running automaton retained (idle = %d)", idleLen(p))
	}
	close(block)
	if err := e.Automaton.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolConcurrentCheckouts: concurrent Get/Run/Put cycles must never
// hand the same entry to two requests at once. The automaton's own
// already-started error would fire if they did; the race detector covers
// the rest.
func TestPoolConcurrentCheckouts(t *testing.T) {
	builds := 0
	var mu sync.Mutex
	build := countingBuilder(&builds)
	p, err := NewPool("p", 4, func() (Entry[int], error) {
		mu.Lock()
		defer mu.Unlock()
		return build()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				e, err := p.Get(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				res, err := Run(context.Background(), e, 0, nil)
				if err != nil || !res.Snapshot.Final {
					t.Errorf("run: %+v, %v", res, err)
					return
				}
				if err := p.Put(e); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
