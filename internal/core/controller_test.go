package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"anytime/internal/testgate"
)

// slowCounter builds an automaton publishing 1..n with a small delay.
func slowCounter(t *testing.T, n int, delay time.Duration) (*Automaton, *Buffer[int]) {
	t.Helper()
	out := NewBuffer[int]("count", nil)
	a := New()
	if err := a.AddStage("count", func(c *Context) error {
		for i := 1; i <= n; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if _, err := out.Publish(i, i == n); err != nil {
				return err
			}
			time.Sleep(delay)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return a, out
}

func TestStopWhenAcceptsEarly(t *testing.T) {
	testgate.Goroutines(t)
	a, out := slowCounter(t, 1000, time.Millisecond)
	accepted := StopWhen(a, out, func(s Snapshot[int]) bool { return s.Value >= 5 })
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, ok := <-accepted
	if !ok {
		t.Fatal("controller closed without a snapshot")
	}
	if snap.Value < 5 {
		t.Errorf("accepted %d before threshold", snap.Value)
	}
	if snap.Final {
		t.Error("early acceptance should not be final")
	}
	if err := a.Wait(); !errors.Is(err, ErrStopped) {
		t.Errorf("Wait = %v, want ErrStopped", err)
	}
	// The channel delivers exactly one snapshot.
	if _, ok := <-accepted; ok {
		t.Error("controller delivered a second snapshot")
	}
}

func TestStopWhenFallsThroughToFinal(t *testing.T) {
	a, out := slowCounter(t, 10, 0)
	accepted := StopWhen(a, out, func(s Snapshot[int]) bool { return false })
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := <-accepted
	if !snap.Final || snap.Value != 10 {
		t.Errorf("never-accept controller delivered %+v, want the final snapshot", snap)
	}
	if err := a.Wait(); err != nil {
		t.Errorf("Wait = %v", err)
	}
}

func TestStopWhenSurvivesExternalStop(t *testing.T) {
	testgate.Goroutines(t)
	a, out := slowCounter(t, 1_000_000, time.Millisecond)
	accepted := StopWhen(a, out, func(s Snapshot[int]) bool { return false })
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	a.Stop()
	select {
	case snap, ok := <-accepted:
		if ok && snap.Version == 0 {
			t.Error("delivered zero-version snapshot")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("controller hung after external stop")
	}
}

func TestStopAfterEnforcesDeadline(t *testing.T) {
	testgate.Goroutines(t)
	a, out := slowCounter(t, 1_000_000, time.Millisecond)
	cancel := StopAfter(a, 20*time.Millisecond)
	defer cancel()
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-a.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("deadline did not stop the automaton")
	}
	if _, ok := out.Latest(); !ok {
		t.Error("no output at the deadline")
	}
	if err := a.Wait(); !errors.Is(err, ErrStopped) {
		t.Errorf("Wait = %v", err)
	}
}

func TestStopAfterCancelDisarms(t *testing.T) {
	testgate.Goroutines(t)
	a, _ := slowCounter(t, 5, 0)
	cancel := StopAfter(a, time.Millisecond)
	cancel() // disarm before start: the automaton must finish precisely
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Errorf("Wait = %v, want clean finish", err)
	}
}

func TestStopAfterNoopWhenFinished(t *testing.T) {
	a, _ := slowCounter(t, 3, 0)
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	cancel := StopAfter(a, time.Millisecond)
	defer cancel()
	time.Sleep(5 * time.Millisecond) // must not panic or hang
}
