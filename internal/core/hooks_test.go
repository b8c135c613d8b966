package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collectHooks builds a Hooks value recording every callback into counters
// safe for the concurrent stage goroutines.
type hookLog struct {
	mu            sync.Mutex
	starts        []string
	finishes      map[string]error
	autoStart     int
	autoStages    int
	autoFinish    int
	autoOutcome   error
	checkpoints   atomic.Int64
	pausedWaits   atomic.Int64
	totalPausedNS atomic.Int64
}

func (l *hookLog) hooks() *Hooks {
	return &Hooks{
		AutomatonStart: func(stages int) {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.autoStart++
			l.autoStages = stages
		},
		AutomatonFinish: func(outcome error, elapsed time.Duration) {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.autoFinish++
			l.autoOutcome = outcome
		},
		StageStart: func(stage string) {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.starts = append(l.starts, stage)
		},
		StageFinish: func(stage string, err error, elapsed time.Duration) {
			l.mu.Lock()
			defer l.mu.Unlock()
			if l.finishes == nil {
				l.finishes = map[string]error{}
			}
			l.finishes[stage] = err
		},
		Checkpoint: func(stage string, wait time.Duration) {
			l.checkpoints.Add(1)
			if wait > 0 {
				l.pausedWaits.Add(1)
				l.totalPausedNS.Add(int64(wait))
			}
		},
	}
}

func TestHooksFireAcrossLifecycle(t *testing.T) {
	var log hookLog
	out := NewBuffer[int]("out", nil)
	a := New()
	if err := a.AddStage("s1", func(c *Context) error {
		for i := 0; i < 4; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if _, err := out.Publish(i, i == 3); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("s2", func(c *Context) error {
		return c.Checkpoint()
	}); err != nil {
		t.Fatal(err)
	}
	a.SetHooks(log.hooks())
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.autoStart != 1 || log.autoStages != 2 {
		t.Errorf("AutomatonStart = %d (stages %d), want 1 (2)", log.autoStart, log.autoStages)
	}
	if log.autoFinish != 1 || log.autoOutcome != nil {
		t.Errorf("AutomatonFinish = %d (outcome %v), want 1 (nil) by the time Wait returns", log.autoFinish, log.autoOutcome)
	}
	if len(log.starts) != 2 {
		t.Errorf("StageStart fired for %v, want both stages", log.starts)
	}
	if err, ok := log.finishes["s1"]; !ok || err != nil {
		t.Errorf("StageFinish(s1) = %v, %v", err, ok)
	}
	if got := log.checkpoints.Load(); got < 5 {
		t.Errorf("checkpoints = %d, want >= 5", got)
	}
}

// TestAutomatonFinishLandsBeforeWait pins the hook's ordering: a slow
// AutomatonFinish must have completed by the time Wait returns, so a
// scrape after Wait — or a pooled slot reset for the next run — never
// races the previous run's finish.
func TestAutomatonFinishLandsBeforeWait(t *testing.T) {
	var finished atomic.Bool
	a := New()
	if err := a.AddStage("s", func(c *Context) error { return c.Checkpoint() }); err != nil {
		t.Fatal(err)
	}
	a.SetHooks(&Hooks{AutomatonFinish: func(error, time.Duration) {
		time.Sleep(5 * time.Millisecond)
		finished.Store(true)
	}})
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Fatal("Wait returned before AutomatonFinish completed")
	}
}

func TestHooksCheckpointReportsPauseWait(t *testing.T) {
	var log hookLog
	started := make(chan struct{})
	release := make(chan struct{})
	a := New()
	if err := a.AddStage("s", func(c *Context) error {
		if err := c.Checkpoint(); err != nil {
			return err
		}
		close(started)
		<-release
		return c.Checkpoint() // blocks at the paused gate
	}); err != nil {
		t.Fatal(err)
	}
	a.SetHooks(log.hooks())
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-started
	a.Pause()
	close(release)
	time.Sleep(20 * time.Millisecond) // stage is now blocked at the gate
	a.Resume()
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if log.pausedWaits.Load() == 0 {
		t.Error("no checkpoint reported a nonzero pause wait")
	}
	if log.totalPausedNS.Load() < int64(10*time.Millisecond) {
		t.Errorf("total pause wait %v, want >= 10ms", time.Duration(log.totalPausedNS.Load()))
	}
}

func TestHooksStageFinishNormalizesErrors(t *testing.T) {
	var log hookLog
	a := New()
	if err := a.AddStage("boom", func(c *Context) error {
		panic("kaboom")
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("loop", func(c *Context) error {
		for {
			if err := c.Checkpoint(); err != nil {
				return err
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	a.SetHooks(log.hooks())
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := a.Wait()
	if err == nil || errors.Is(err, ErrStopped) {
		t.Fatalf("Wait() = %v, want the panic as a stage failure", err)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if err := log.finishes["boom"]; err == nil || errors.Is(err, ErrStopped) {
		t.Errorf("StageFinish(boom) = %v, want the panic error", err)
	}
	if err := log.finishes["loop"]; !errors.Is(err, ErrStopped) {
		t.Errorf("StageFinish(loop) = %v, want ErrStopped", err)
	}
}

func TestSetHooksAfterStartIsNoOp(t *testing.T) {
	var log hookLog
	a := New()
	block := make(chan struct{})
	if err := a.AddStage("s", func(c *Context) error {
		<-block
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.SetHooks(log.hooks())
	close(block)
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.autoStart != 0 || len(log.starts) != 0 {
		t.Error("hooks attached after Start still fired")
	}
}

func TestStreamOnDepthObservesQueue(t *testing.T) {
	st, err := NewStream[int](4)
	if err != nil {
		t.Fatal(err)
	}
	var maxDepth atomic.Int64
	var gotCap atomic.Int64
	st.OnDepth(func(depth, capacity int) {
		gotCap.Store(int64(capacity))
		for {
			cur := maxDepth.Load()
			if int64(depth) <= cur || maxDepth.CompareAndSwap(cur, int64(depth)) {
				return
			}
		}
	})
	a := New()
	if err := a.AddStage("producer", func(c *Context) error {
		for i := 1; i <= 8; i++ {
			if err := st.Send(c, Update[int]{Seq: i, Data: i, Last: i == 8}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("consumer", func(c *Context) error {
		return SyncConsume(c, st, func(u Update[int]) error {
			time.Sleep(time.Millisecond) // let the producer run ahead
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if gotCap.Load() != 4 {
		t.Errorf("capacity = %d, want 4", gotCap.Load())
	}
	if maxDepth.Load() < 1 {
		t.Errorf("max depth = %d, want >= 1", maxDepth.Load())
	}
}

// TestChainHooksIdentity: zero or one live input passes through unchanged,
// preserving the nil-guard fast path exactly — chaining must never wrap
// what it doesn't need to.
func TestChainHooksIdentity(t *testing.T) {
	if got := ChainHooks(); got != nil {
		t.Error("ChainHooks() != nil")
	}
	if got := ChainHooks(nil, nil); got != nil {
		t.Error("ChainHooks(nil, nil) != nil")
	}
	h := &Hooks{StageStart: func(string) {}}
	if got := ChainHooks(nil, h, nil); got != h {
		t.Error("single live input was wrapped instead of returned as-is")
	}
}

// TestChainHooksInvokesAllInOrder: every non-nil callback of every input
// fires, in argument order, with the original arguments.
func TestChainHooksInvokesAllInOrder(t *testing.T) {
	var order []string
	mk := func(name string) *Hooks {
		return &Hooks{
			AutomatonStart:  func(stages int) { order = append(order, name+".start") },
			AutomatonFinish: func(error, time.Duration) { order = append(order, name+".finish") },
			StageStart:      func(stage string) { order = append(order, name+".stage:"+stage) },
			StageFinish:     func(string, error, time.Duration) { order = append(order, name+".stagefin") },
			Checkpoint:      func(string, time.Duration) { order = append(order, name+".cp") },
			EdgeWait:        func(stage, buffer string, after Version) { order = append(order, name+".wait:"+buffer) },
			EdgeRecv:        func(string) { order = append(order, name+".recv") },
		}
	}
	c := ChainHooks(mk("a"), nil, mk("b"))
	if c == nil || c.AutomatonStart == nil || c.StageStart == nil || c.Checkpoint == nil ||
		c.EdgeWait == nil || c.EdgeRecv == nil || c.StageFinish == nil || c.AutomatonFinish == nil {
		t.Fatal("chain dropped a provided callback")
		return
	}
	c.AutomatonStart(2)
	c.StageStart("s")
	c.Checkpoint("s", 0)
	c.EdgeWait("s", "buf", 1)
	c.EdgeRecv("s")
	c.StageFinish("s", nil, 0)
	c.AutomatonFinish(nil, 0)
	want := []string{
		"a.start", "b.start",
		"a.stage:s", "b.stage:s",
		"a.cp", "b.cp",
		"a.wait:buf", "b.wait:buf",
		"a.recv", "b.recv",
		"a.stagefin", "b.stagefin",
		"a.finish", "b.finish",
	}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %q, want %q (full: %v)", i, order[i], want[i], order)
		}
	}
}

// TestChainHooksSparseFields: a combined field is set only when some input
// sets it, so unused instrumentation points keep their one-pointer-check
// cost through the chain.
func TestChainHooksSparseFields(t *testing.T) {
	fired := 0
	c := ChainHooks(
		&Hooks{AutomatonStart: func(int) { fired++ }},
		&Hooks{Checkpoint: func(string, time.Duration) { fired++ }},
	)
	if c.AutomatonFinish != nil || c.StageStart != nil || c.StageFinish != nil ||
		c.EdgeWait != nil || c.EdgeRecv != nil {
		t.Error("chain set callbacks no input provided")
	}
	if c == nil || c.AutomatonStart == nil || c.Checkpoint == nil {
		t.Fatal("chain dropped provided callbacks")
		return
	}
	c.AutomatonStart(1)
	c.Checkpoint("s", 0)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// TestChainHooksDrivesAutomaton: a chained pair observes a real run — the
// integration shape cmd/anytimed uses (telemetry + request tracer on one
// SetHooks point).
func TestChainHooksDrivesAutomaton(t *testing.T) {
	var a, b atomic.Int64
	count := func(n *atomic.Int64) *Hooks {
		return &Hooks{
			AutomatonStart:  func(int) { n.Add(1) },
			AutomatonFinish: func(error, time.Duration) { n.Add(1) },
		}
	}
	auto := New()
	if err := auto.AddStage("s", func(c *Context) error { return c.Checkpoint() }); err != nil {
		t.Fatal(err)
	}
	auto.SetHooks(ChainHooks(count(&a), count(&b)))
	if err := auto.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := auto.Wait(); err != nil {
		t.Fatal(err)
	}
	if a.Load() != 2 || b.Load() != 2 {
		t.Fatalf("chained observers saw a=%d b=%d lifecycle callbacks, want 2 each", a.Load(), b.Load())
	}
}

// TestAllNilHooksReachEveryCallSite attaches a non-nil Hooks whose every
// field is nil and drives all seven hook call sites — automaton start and
// finish, stage start and finish, a checkpoint that blocks at a paused gate
// and resumes, an asynchronous edge (EdgeWait) and a synchronous one
// (EdgeRecv). Each site guards the field as well as the pointer; with any
// one field guard removed this run calls a nil func and panics (a stage
// panic surfaces as the Wait error, the others crash the test). It is the
// whole of what the hooknil analyzer checked once core.Hooks was the only
// hooks struct left.
func TestAllNilHooksReachEveryCallSite(t *testing.T) {
	mid := NewBuffer[int]("mid", nil)
	st, err := NewStream[int](1)
	if err != nil {
		t.Fatal(err)
	}
	atGate := make(chan struct{})
	release := make(chan struct{})
	a := New()
	stages := map[string]func(*Context) error{
		"source": func(c *Context) error {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			close(atGate)
			<-release
			if err := c.Checkpoint(); err != nil { // the gate is paused by now
				return err
			}
			if _, err := mid.Publish(1, true); err != nil {
				return err
			}
			return st.Send(c, Update[int]{Seq: 1, Data: 1, Last: true})
		},
		"async": func(c *Context) error {
			return AsyncConsume(c, mid, func(Snapshot[int]) error { return nil })
		},
		"sync": func(c *Context) error {
			return SyncConsume(c, st, func(Update[int]) error { return nil })
		},
	}
	for name, loop := range stages {
		if err := a.AddStage(name, loop); err != nil {
			t.Fatal(err)
		}
	}
	a.SetHooks(&Hooks{})
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-atGate:
	case <-a.Done(): // a stage failed before the pause; Wait says why
		t.Fatalf("run with all-nil hooks ended early: %v", a.Wait())
	}
	a.Pause()
	close(release)
	time.Sleep(5 * time.Millisecond) // let the source block at the gate
	a.Resume()
	if err := a.Wait(); err != nil {
		t.Fatalf("run with all-nil hooks: %v", err)
	}
}
