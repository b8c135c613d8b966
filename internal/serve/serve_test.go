package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"anytime/internal/core"
	"anytime/internal/reqtrace"
	"anytime/internal/testgate"
)

// onKind returns a sink calling fn for events of kind k: how the tests
// watch one decision point.
func onKind(k reqtrace.Kind, fn func(reqtrace.Event)) reqtrace.Sink {
	return func(e reqtrace.Event) {
		if e.Kind == k {
			fn(e)
		}
	}
}

// pacedEntry builds an automaton publishing versions 1..n, blocking on
// step between publishes so tests control exactly how far it gets.
func pacedEntry(n int) (Entry[int], chan struct{}) {
	step := make(chan struct{})
	out := core.NewBuffer[int]("paced", nil)
	a := core.New()
	_ = a.AddStage("paced", func(c *core.Context) error {
		for i := 1; i <= n; i++ {
			select {
			case <-step:
			case <-c.Context().Done():
				return core.ErrStopped
			}
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if _, err := out.Publish(i, i == n); err != nil {
				return err
			}
		}
		return nil
	})
	a.OnReset(out.Reset)
	return Entry[int]{Automaton: a, Out: out}, step
}

func TestRunPreciseNoDeadline(t *testing.T) {
	e, step := pacedEntry(3)
	close(step) // free-running
	var finished []reqtrace.Event
	sink := onKind(reqtrace.KindRunFinish, func(e reqtrace.Event) { finished = append(finished, e) })
	res, err := Run(context.Background(), e, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Value != 3 || !res.Snapshot.Final || res.Interrupted {
		t.Fatalf("result %+v, want final value 3", res)
	}
	if len(finished) != 1 || !finished[0].Flag || finished[0].Note != "precise" || finished[0].Dur != res.Elapsed {
		t.Fatalf("sink saw %+v, want one final precise run.finish carrying the result's elapsed", finished)
	}
}

func TestRunDeadlineDeliversBestApproximation(t *testing.T) {
	testgate.Goroutines(t)
	e, step := pacedEntry(3)
	// Allow exactly one publish, then stall: the deadline must fire and
	// deliver version 1 rather than erroring or waiting for precision.
	go func() { step <- struct{}{} }()
	res, err := Run(context.Background(), e, 30*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Version != 1 || res.Snapshot.Final {
		t.Fatalf("snapshot %+v, want non-final version 1", res.Snapshot)
	}
	if !res.Interrupted {
		t.Fatal("deadline fire not reported as interruption")
	}
}

func TestRunDeadlineWaitsForFirstPublish(t *testing.T) {
	testgate.Goroutines(t)
	e, step := pacedEntry(2)
	// Nothing published when the deadline fires; Run must hold on for the
	// first version instead of failing.
	go func() {
		time.Sleep(40 * time.Millisecond)
		step <- struct{}{}
	}()
	res, err := Run(context.Background(), e, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Version != 1 || !res.Interrupted {
		t.Fatalf("result %+v, want interrupted version 1", res)
	}

	// The wait is bounded by the automaton: one that ends without ever
	// publishing — before the deadline or while Run waits past it — is the
	// one way an admitted request ends empty-handed, with ErrNoOutput or
	// the stage's failure.
	boom := errors.New("boom")
	for _, linger := range []time.Duration{0, 30 * time.Millisecond} {
		for _, want := range []error{ErrNoOutput, boom} {
			a := core.New()
			if err := a.AddStage("mute", func(*core.Context) error {
				time.Sleep(linger)
				if want == boom {
					return boom
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			mute := Entry[int]{Automaton: a, Out: core.NewBuffer[int]("mute", nil)}
			if _, err := Run(context.Background(), mute, 5*time.Millisecond, nil); !errors.Is(err, want) {
				t.Errorf("mute automaton ending after %v: %v, want %v", linger, err, want)
			}
		}
	}
}

func TestRunFinishBeforeDeadlineIsPrecise(t *testing.T) {
	e, step := pacedEntry(2)
	close(step)
	res, err := Run(context.Background(), e, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Snapshot.Final || res.Interrupted {
		t.Fatalf("result %+v, want precise uninterrupted", res)
	}
}

func TestRunClientDisconnect(t *testing.T) {
	testgate.Goroutines(t)
	e, _ := pacedEntry(2) // never steps: stalls before first publish
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := Run(ctx, e, time.Hour, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("disconnected run: %v, want context.Canceled", err)
	}
	// The automaton was stopped, so the entry is poolable again.
	if err := e.Automaton.Reset(); err != nil {
		t.Fatal(err)
	}
}

func TestRunStageFailurePropagates(t *testing.T) {
	out := core.NewBuffer[int]("fail", nil)
	a := core.New()
	if err := a.AddStage("fail", func(c *core.Context) error {
		return errors.New("boom")
	}); err != nil {
		t.Fatal(err)
	}
	e := Entry[int]{Automaton: a, Out: out}
	if _, err := Run(context.Background(), e, 0, nil); err == nil || errors.Is(err, core.ErrStopped) {
		t.Fatalf("stage failure surfaced as %v", err)
	}
}

func TestRunUntilAcceptsEarlySnapshot(t *testing.T) {
	testgate.Goroutines(t)
	e, step := pacedEntry(5)
	close(step)
	res, err := RunUntil(context.Background(), e, func(s core.Snapshot[int]) bool {
		return s.Value >= 2
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Value < 2 || !res.Interrupted && !res.Snapshot.Final {
		t.Fatalf("result %+v, want accepted snapshot ≥ 2", res)
	}
	// Reusable afterwards: no observers were registered on the pooled
	// buffer, so a second request repeats the cycle identically.
	if err := e.Automaton.Reset(); err != nil {
		t.Fatal(err)
	}
	res2, err := RunUntil(context.Background(), e, func(s core.Snapshot[int]) bool {
		return s.Value >= 2
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Snapshot.Value < 2 {
		t.Fatalf("second cycle result %+v", res2)
	}
}

func TestRunUntilNeverAcceptedRunsToPrecision(t *testing.T) {
	testgate.Goroutines(t)
	e, step := pacedEntry(3)
	close(step)
	res, err := RunUntil(context.Background(), e, func(core.Snapshot[int]) bool { return false }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Snapshot.Final || res.Snapshot.Value != 3 || res.Interrupted {
		t.Fatalf("result %+v, want precise value 3", res)
	}
}

func TestRunUntilNilPredicate(t *testing.T) {
	e, step := pacedEntry(1)
	close(step)
	if _, err := RunUntil(context.Background(), e, nil, nil); err == nil {
		t.Fatal("nil predicate accepted")
	}
}

func TestRunUntilClientDisconnect(t *testing.T) {
	testgate.Goroutines(t)
	e, _ := pacedEntry(2)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := RunUntil(ctx, e, func(core.Snapshot[int]) bool { return false }, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("disconnected RunUntil: %v", err)
	}
}

// TestRunOutcomes pins what a run leaves to deliver when its automaton
// ends on its own or its client goes away, the same through every entry
// point: Run without a deadline, Run under a deadline the run never
// reaches, and RunUntil with a predicate that admits nothing early. A
// delivery reports exactly one run.finish; a failure reports none.
func TestRunOutcomes(t *testing.T) {
	testgate.Goroutines(t)
	boom := errors.New("boom")
	rows := []struct {
		name  string
		stage func(c *core.Context, out *core.Buffer[int]) error
		leave bool // the client goes away mid-run
		// what is delivered: version and finality, or the error
		version core.Version
		final   bool
		err     error
	}{
		{name: "precise", stage: func(c *core.Context, out *core.Buffer[int]) error {
			for i := 1; i <= 3; i++ {
				if _, err := out.Publish(i, i == 3); err != nil {
					return err
				}
			}
			return nil
		}, version: 3, final: true},
		{name: "fails after publishing", stage: func(c *core.Context, out *core.Buffer[int]) error {
			if _, err := out.Publish(1, false); err != nil {
				return err
			}
			return boom
		}, err: boom},
		{name: "fails before publishing", stage: func(*core.Context, *core.Buffer[int]) error {
			return boom
		}, err: boom},
		{name: "ends with nothing published", stage: func(*core.Context, *core.Buffer[int]) error {
			return nil
		}, err: ErrNoOutput},
		{name: "ends after a non-final version", stage: func(c *core.Context, out *core.Buffer[int]) error {
			_, err := out.Publish(1, false)
			return err
		}, version: 1},
		{name: "client goes away", stage: func(c *core.Context, _ *core.Buffer[int]) error {
			<-c.Context().Done()
			return c.Context().Err()
		}, leave: true, err: context.Canceled},
	}
	entries := []struct {
		name string
		run  func(context.Context, Entry[int], reqtrace.Sink) (Result[int], error)
	}{
		{"Run(0)", func(ctx context.Context, e Entry[int], sink reqtrace.Sink) (Result[int], error) {
			return Run(ctx, e, 0, sink)
		}},
		{"Run(deadline)", func(ctx context.Context, e Entry[int], sink reqtrace.Sink) (Result[int], error) {
			return Run(ctx, e, time.Minute, sink)
		}},
		{"RunUntil", func(ctx context.Context, e Entry[int], sink reqtrace.Sink) (Result[int], error) {
			return RunUntil(ctx, e, func(core.Snapshot[int]) bool { return false }, sink)
		}},
	}
	for _, row := range rows {
		for _, entry := range entries {
			t.Run(row.name+"/"+entry.name, func(t *testing.T) {
				out := core.NewBuffer[int]("outcome", nil)
				a := core.New()
				if err := a.AddStage("outcome", func(c *core.Context) error { return row.stage(c, out) }); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if row.leave {
					defer time.AfterFunc(10*time.Millisecond, cancel).Stop()
				}
				finishes := 0
				res, err := entry.run(ctx, Entry[int]{Automaton: a, Out: out},
					onKind(reqtrace.KindRunFinish, func(reqtrace.Event) { finishes++ }))
				if row.err != nil {
					if !errors.Is(err, row.err) || finishes != 0 {
						t.Fatalf("err=%v with %d run.finish, want %v and none", err, finishes, row.err)
					}
				} else if err != nil || res.Snapshot.Version != row.version || res.Snapshot.Final != row.final ||
					res.Interrupted || finishes != 1 {
					t.Fatalf("res=%+v err=%v with %d run.finish, want version %d final=%v uninterrupted and one",
						res, err, finishes, row.version, row.final)
				}
				// Every way out leaves the automaton ready for its pool.
				if err := a.Reset(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestServeCycleUnderConcurrency drives the full pool+queue+run composition
// the way anytimed does, with the race detector watching.
func TestServeCycleUnderConcurrency(t *testing.T) {
	builds := 0
	var mu sync.Mutex
	p, err := NewPool("cycle", 4, func() (Entry[int], error) {
		mu.Lock()
		builds++
		mu.Unlock()
		e, step := pacedEntry(3)
		close(step)
		return e, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(4, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			deadline := time.Duration(g%3) * 50 * time.Millisecond
			if err := q.AcquireWithin(ctx, deadline); err != nil {
				t.Error(err)
				return
			}
			defer q.Release()
			e, err := p.Get(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := Run(ctx, e, deadline, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Snapshot.Version == 0 {
				t.Errorf("empty snapshot delivered: %+v", res)
			}
			if err := p.Put(e); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if builds > 8 {
		t.Fatalf("built %d automata for 16 requests at concurrency 4", builds)
	}
}

// TestDisabledObserversAddNoAllocs pins the disabled path's bar: with a nil
// sink and no trace in the context, a full Acquire → Get → Run → Put →
// Release cycle allocates only what the automaton run itself does. The
// bound is the cycle's count at the commit before decision points reported
// through reqtrace.Sink (8, stable over repeated runs); reporting must never
// raise it.
func TestDisabledObserversAddNoAllocs(t *testing.T) {
	const runAllocs = 8
	builds := 0
	q, err := NewQueue(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool("p", 1, countingBuilder(&builds), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Warm(1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if err := q.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		e, err := p.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(ctx, e, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := p.Put(e); err != nil {
			t.Fatal(err)
		}
		q.Release()
	})
	if allocs > runAllocs {
		t.Errorf("disabled-observer cycle allocates %.1f, want at most %d", allocs, runAllocs)
	}
}
