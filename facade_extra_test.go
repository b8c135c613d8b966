package anytime_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"anytime"
)

// TestPublicAPIGraphBuilder wires a validated DAG through the facade.
func TestPublicAPIGraphBuilder(t *testing.T) {
	f := anytime.NewBuffer[int]("F", nil)
	g := anytime.NewBuffer[int]("G", nil)
	a, err := anytime.NewGraph().
		Stage("f", func(c *anytime.Context) error {
			return anytime.Iterative(c, f, []func() (int, error){
				func() (int, error) { return 1, nil },
				func() (int, error) { return 2, nil },
			})
		}, f).
		Stage("g", func(c *anytime.Context) error {
			return anytime.AsyncConsume(c, f, func(s anytime.Snapshot[int]) error {
				_, err := g.Publish(s.Value*100, s.Final)
				return err
			})
		}, g, f).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	snap, _ := g.Latest()
	if snap.Value != 200 || !snap.Final {
		t.Errorf("graph output %+v", snap)
	}

	// Structural violations must be rejected.
	b := anytime.NewBuffer[int]("B", nil)
	if _, err := anytime.NewGraph().
		Stage("w1", func(*anytime.Context) error { return nil }, b).
		Stage("w2", func(*anytime.Context) error { return nil }, b).
		Build(); err == nil {
		t.Error("double writer accepted through facade")
	}
}

// TestPublicAPITracer records a run's publishes and renders a timeline.
func TestPublicAPITracer(t *testing.T) {
	out := anytime.NewBuffer[int]("stage", nil)
	tr := anytime.NewTracer()
	anytime.TraceBuffer(tr, out)
	a := anytime.New()
	if err := a.AddStage("s", func(c *anytime.Context) error {
		for i := 1; i <= 3; i++ {
			if _, err := out.Publish(i, i == 3); err != nil {
				return err
			}
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
	if got := len(tr.Events()); got != 3 {
		t.Errorf("%d events", got)
	}
	var buf bytes.Buffer
	if err := anytime.WriteTimeline(tr, &buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stage") {
		t.Errorf("timeline missing buffer name:\n%s", buf.String())
	}
}

// TestPublicAPIStopAfter enforces a time budget through the facade.
func TestPublicAPIStopAfter(t *testing.T) {
	out := anytime.NewBuffer[int]("out", nil)
	a := anytime.New()
	if err := a.AddStage("slow", func(c *anytime.Context) error {
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
	snap, err := anytime.StopAfter(context.Background(), a, out, 15*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version == 0 || snap.Final {
		t.Errorf("budget delivered %+v, want an interrupted approximation", snap)
	}
	if err := a.Wait(); !errors.Is(err, anytime.ErrStopped) {
		t.Errorf("Wait = %v, want ErrStopped", err)
	}
	if _, err := anytime.StopAfter(context.Background(), anytime.New(), out, 0); err == nil {
		t.Error("StopAfter accepted a zero budget")
	}
}

// TestPublicAPIStopWhenExternalStop: an automaton stopped by another
// goroutine while StopWhen waits delivers its newest snapshot, not a hang.
func TestPublicAPIStopWhenExternalStop(t *testing.T) {
	out := anytime.NewBuffer[int]("out", nil)
	a := anytime.New()
	if err := a.AddStage("slow", func(c *anytime.Context) error {
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
	out.OnPublish(func(s anytime.Snapshot[int]) {
		if s.Version == 3 {
			go a.Stop()
		}
	})
	snap, err := anytime.StopWhen(context.Background(), a, out, func(anytime.Snapshot[int]) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version < 3 || snap.Final {
		t.Errorf("external stop delivered %+v, want version ≥ 3, not final", snap)
	}
}

// TestPublicAPISubscribe consumes a run's snapshots over a channel with
// latest-wins semantics.
func TestPublicAPISubscribe(t *testing.T) {
	out := anytime.NewBuffer[int]("out", nil)
	sub := out.Subscribe(context.Background())
	a := anytime.New()
	if err := a.AddStage("s", func(c *anytime.Context) error {
		for i := 1; i <= 50; i++ {
			if _, err := out.Publish(i, i == 50); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	var last anytime.Snapshot[int]
	for snap := range sub {
		last = snap
	}
	if !last.Final || last.Value != 50 {
		t.Errorf("subscription ended on %+v", last)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
}
