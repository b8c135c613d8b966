package serve_test

import (
	"context"
	"fmt"
	"time"

	"anytime/internal/core"
	"anytime/internal/serve"
)

// buildSquares constructs a tiny anytime pipeline: one stage publishing
// progressively better approximations of a sum of squares, the last one
// precise. Real apps (internal/apps/...) return the same Entry shape from
// their constructors.
func buildSquares() (serve.Entry[int], error) {
	out := core.NewBuffer[int]("squares", nil)
	a := core.New()
	err := a.AddStage("sum", func(c *core.Context) error {
		sum := 0
		for i := 1; i <= 4; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			sum += i * i
			if _, err := out.Publish(sum, i == 4); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return serve.Entry[int]{}, err
	}
	// Registering the buffer rewind here makes the automaton poolable:
	// Reset rewinds versions to zero without rebuilding the pipeline.
	a.OnReset(out.Reset)
	return serve.Entry[int]{Automaton: a, Out: out}, nil
}

// ExamplePool shows the warm-pool cycle: construction happens once, and
// every later request pays only a Reset.
func ExamplePool() {
	pool, err := serve.NewPool("squares", 2, buildSquares, nil)
	if err != nil {
		panic(err)
	}
	if err := pool.Warm(1); err != nil {
		panic(err)
	}
	for request := 1; request <= 3; request++ {
		entry, err := pool.Get(context.Background())
		if err != nil {
			panic(err)
		}
		res, err := serve.Run(context.Background(), entry, 0, nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("request %d: value %d, version %d, final %v\n",
			request, res.Snapshot.Value, res.Snapshot.Version, res.Snapshot.Final)
		if err := pool.Put(entry); err != nil {
			panic(err)
		}
	}
	// Output:
	// request 1: value 30, version 4, final true
	// request 2: value 30, version 4, final true
	// request 3: value 30, version 4, final true
}

// ExampleRun demonstrates the two ends of the deadline contract: no
// deadline yields the precise output, and a deadline always yields the
// best published approximation available when it fires — never an error.
func ExampleRun() {
	entry, err := buildSquares()
	if err != nil {
		panic(err)
	}
	precise, err := serve.Run(context.Background(), entry, 0, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("no deadline: value %d, final %v, interrupted %v\n",
		precise.Snapshot.Value, precise.Snapshot.Final, precise.Interrupted)

	// A generous deadline the tiny pipeline beats easily: finishing before
	// the deadline delivers the same precise output.
	if err := entry.Automaton.Reset(); err != nil {
		panic(err)
	}
	early, err := serve.Run(context.Background(), entry, time.Second, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("1s deadline: value %d, final %v, interrupted %v\n",
		early.Snapshot.Value, early.Snapshot.Final, early.Interrupted)
	// Output:
	// no deadline: value 30, final true, interrupted false
	// 1s deadline: value 30, final true, interrupted false
}

// ExampleRunUntil shows the acceptance contract: the run stops at the
// first snapshot the predicate admits, not at full precision. Output
// buffers are latest-wins, so a fast pipeline may publish several versions
// between polls; this example paces the stage off the predicate (each
// rejection releases the next publish) purely to make the accepted version
// deterministic for the doc test.
func ExampleRunUntil() {
	step := make(chan struct{}, 1)
	step <- struct{}{}
	out := core.NewBuffer[int]("squares", nil)
	a := core.New()
	if err := a.AddStage("sum", func(c *core.Context) error {
		sum := 0
		for i := 1; i <= 4; i++ {
			select {
			case <-step:
			case <-c.Context().Done():
				return core.ErrStopped
			}
			sum += i * i
			if _, err := out.Publish(sum, i == 4); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		panic(err)
	}
	entry := serve.Entry[int]{Automaton: a, Out: out}
	res, err := serve.RunUntil(context.Background(), entry,
		func(s core.Snapshot[int]) bool {
			if s.Value >= 5 {
				return true
			}
			step <- struct{}{}
			return false
		}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("accepted: value %d, version %d, interrupted %v\n",
		res.Snapshot.Value, res.Snapshot.Version, res.Interrupted)
	// Output:
	// accepted: value 5, version 2, interrupted true
}
