package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"anytime/internal/testgate"
)

func TestAutomatonLifecycle(t *testing.T) {
	a := New()
	out := NewBuffer[int]("out", nil)
	if err := a.AddStage("s", func(c *Context) error {
		_, err := out.Publish(1, true)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatalf("Wait = %v", err)
	}
	if !out.Final() {
		t.Error("output not final after clean completion")
	}
}

func TestAutomatonRejectsEmptyAndDoubleStart(t *testing.T) {
	a := New()
	if err := a.Start(context.Background()); err == nil {
		t.Error("empty automaton started")
	}
	if err := a.AddStage("s", func(c *Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err == nil {
		t.Error("double start accepted")
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestAutomatonRejectsNilStageAndLateAdd(t *testing.T) {
	a := New()
	if err := a.AddStage("nil", nil); err == nil {
		t.Error("nil stage accepted")
	}
	if err := a.AddStage("s", func(c *Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("late", func(c *Context) error { return nil }); err == nil {
		t.Error("late AddStage accepted")
	}
	a.Stop()
}

func TestAutomatonStopInterrupts(t *testing.T) {
	testgate.Goroutines(t)
	a := New()
	started := make(chan struct{})
	if err := a.AddStage("spin", func(c *Context) error {
		close(started)
		for {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-started
	a.Stop()
	if err := a.Wait(); !errors.Is(err, ErrStopped) {
		t.Errorf("Wait after Stop = %v, want ErrStopped", err)
	}
}

func TestAutomatonStopBeforeStartIsNoop(t *testing.T) {
	a := New()
	a.Stop() // must not hang or panic
	if err := a.AddStage("s", func(c *Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	a.Stop() // stop after finish: no-op
}

func TestAutomatonParentContextCancels(t *testing.T) {
	testgate.Goroutines(t)
	ctx, cancel := context.WithCancel(context.Background())
	a := New()
	if err := a.AddStage("spin", func(c *Context) error {
		for {
			if err := c.Checkpoint(); err != nil {
				return err
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := a.Wait(); !errors.Is(err, ErrStopped) {
		t.Errorf("Wait = %v", err)
	}
}

func TestAutomatonPauseHaltsProgress(t *testing.T) {
	a := New()
	var steps atomic.Int64
	if err := a.AddStage("count", func(c *Context) error {
		for i := 0; i < 1_000_000; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			steps.Add(1)
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	a.Pause()
	if !a.Paused() {
		t.Error("Paused() false after Pause")
	}
	time.Sleep(5 * time.Millisecond) // allow in-flight step to finish
	before := steps.Load()
	time.Sleep(30 * time.Millisecond)
	after := steps.Load()
	if after > before+1 {
		t.Errorf("progress while paused: %d -> %d", before, after)
	}
	a.Resume()
	if a.Paused() {
		t.Error("Paused() true after Resume")
	}
	time.Sleep(20 * time.Millisecond)
	if steps.Load() <= after {
		t.Error("no progress after Resume")
	}
	a.Stop()
}

func TestAutomatonStopWhilePaused(t *testing.T) {
	testgate.Goroutines(t)
	a := New()
	if err := a.AddStage("spin", func(c *Context) error {
		for {
			if err := c.Checkpoint(); err != nil {
				return err
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.Pause()
	done := make(chan struct{})
	go func() {
		a.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung on a paused automaton")
	}
}

func TestAutomatonStageErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	a := New()
	if err := a.AddStage("fail", func(c *Context) error { return boom }); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("spin", func(c *Context) error {
		for {
			if err := c.Checkpoint(); err != nil {
				return err
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := a.Wait()
	if !errors.Is(err, boom) {
		t.Errorf("Wait = %v, want wrapped boom", err)
	}
	if errors.Is(err, ErrStopped) {
		t.Error("real failure reported as ErrStopped")
	}
}

func TestAutomatonFailureOutranksStop(t *testing.T) {
	boom := errors.New("boom")
	a := New()
	if err := a.AddStage("stopper", func(c *Context) error {
		<-c.Context().Done()
		return ErrStopped
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("fail", func(c *Context) error {
		time.Sleep(5 * time.Millisecond)
		return boom
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); !errors.Is(err, boom) {
		t.Errorf("Wait = %v, want boom", err)
	}
}

func TestAutomatonStageErrorUnblocksPausedSiblings(t *testing.T) {
	boom := errors.New("boom")
	a := New()
	if err := a.AddStage("pausee", func(c *Context) error {
		for {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("fail", func(c *Context) error {
		time.Sleep(10 * time.Millisecond)
		return boom
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.Pause()
	waitDone := make(chan error, 1)
	go func() { waitDone <- a.Wait() }()
	select {
	case err := <-waitDone:
		if !errors.Is(err, boom) {
			t.Errorf("Wait = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("failure did not release paused sibling")
	}
}

func TestContextNameAndContext(t *testing.T) {
	a := New()
	got := make(chan string, 1)
	if err := a.AddStage("mystage", func(c *Context) error {
		got <- c.Name()
		if c.Context() == nil {
			t.Error("nil context")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if name := <-got; name != "mystage" {
		t.Errorf("Name = %q", name)
	}
}

func TestDoneChannelCloses(t *testing.T) {
	a := New()
	if err := a.AddStage("s", func(c *Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-a.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done never closed")
	}
}

// TestInterruptibilityOutputSurvivesStop is the paper's headline behaviour:
// stopping mid-flight leaves the latest approximate output readable.
func TestInterruptibilityOutputSurvivesStop(t *testing.T) {
	a := New()
	out := NewBuffer[int]("out", nil)
	published := make(chan struct{})
	var once atomic.Bool
	if err := a.AddStage("s", func(c *Context) error {
		for i := 1; ; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if _, err := out.Publish(i, false); err != nil {
				return err
			}
			if once.CompareAndSwap(false, true) {
				close(published)
			}
			time.Sleep(time.Millisecond)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-published
	a.Stop()
	snap, ok := out.Latest()
	if !ok || snap.Value < 1 {
		t.Errorf("no valid approximate output after Stop: %+v ok=%v", snap, ok)
	}
	if snap.Final {
		t.Error("interrupted output wrongly marked final")
	}
}

// TestStagePanicBecomesFailure: a panicking stage is reported as a stage
// error and brings the pipeline down; siblings exit and their buffers keep
// their latest snapshots.
func TestStagePanicBecomesFailure(t *testing.T) {
	a := New()
	out := NewBuffer[int]("out", nil)
	if err := a.AddStage("panicker", func(c *Context) error {
		time.Sleep(5 * time.Millisecond)
		panic("kaboom")
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("worker", func(c *Context) error {
		for i := 1; ; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if _, err := out.Publish(i, false); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := a.Wait()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("Wait = %v, want wrapped panic", err)
	}
	if errors.Is(err, ErrStopped) {
		t.Error("panic reported as a mere stop")
	}
	if _, ok := out.Latest(); !ok {
		t.Error("sibling's snapshots lost after panic")
	}
}

func TestAutomatonErrAccessor(t *testing.T) {
	a := New()
	if err := a.AddStage("s", func(c *Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := a.Err(); err != nil {
		t.Errorf("Err after clean finish = %v", err)
	}
}
