package anytime_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"anytime"
)

func TestTracerRecordsPublishes(t *testing.T) {
	tr := anytime.NewTracer()
	buf := anytime.NewBuffer[int]("stage-a", nil)
	anytime.TraceBuffer(tr, buf)
	a := anytime.New()
	if err := a.AddStage("s", func(c *anytime.Context) error {
		for i := 1; i <= 5; i++ {
			if _, err := buf.Publish(i, i == 5); err != nil {
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
	events := tr.Events()
	if len(events) != 5 {
		t.Fatalf("%d events", len(events))
	}
	for i, e := range events {
		if e.Name != "stage-a" || e.Version != uint64(i+1) || e.Flag != (i == 4) {
			t.Errorf("event %d = %+v", i, e)
		}
		if i > 0 && e.At < events[i-1].At {
			t.Error("event times not monotone")
		}
	}
}

// TestTracerRecordsEventsAfterAutomatonStop: observers stay attached after
// the automaton stops, so a publish arriving later (a detached writer, a
// second run on the same buffer) is still recorded and extends the
// timeline.
func TestTracerRecordsEventsAfterAutomatonStop(t *testing.T) {
	tr := anytime.NewTracer()
	buf := anytime.NewBuffer[int]("late", nil)
	anytime.TraceBuffer(tr, buf)
	a := anytime.New()
	if err := a.AddStage("s", func(c *anytime.Context) error {
		if _, err := buf.Publish(1, false); err != nil {
			return err
		}
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
	a.Stop()
	if got := len(tr.Events()); got != 1 {
		t.Fatalf("%d events before the late publish", got)
	}
	if _, err := buf.Publish(2, true); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("late publish not recorded: %d events", len(events))
	}
	if events[1].Version != 2 || !events[1].Flag || events[1].At < events[0].At {
		t.Errorf("late event = %+v", events[1])
	}
	var out bytes.Buffer
	if err := anytime.WriteTimeline(tr, &out, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "#|") {
		t.Errorf("timeline missing the late final mark: %q", out.String())
	}
}

func TestTracerMultiBufferPipeline(t *testing.T) {
	tr := anytime.NewTracer()
	fBuf := anytime.NewBuffer[int]("f", nil)
	gBuf := anytime.NewBuffer[int]("g", nil)
	anytime.TraceBuffer(tr, fBuf)
	anytime.TraceBuffer(tr, gBuf)
	a := anytime.New()
	if err := a.AddStage("f", func(c *anytime.Context) error {
		return anytime.Iterative(c, fBuf, []func() (int, error){
			func() (int, error) { return 1, nil },
			func() (int, error) { return 2, nil },
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("g", func(c *anytime.Context) error {
		return anytime.AsyncConsume(c, fBuf, func(s anytime.Snapshot[int]) error {
			_, err := gBuf.Publish(s.Value*10, s.Final)
			return err
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
	finals := map[string]anytime.TraceEvent{}
	for _, e := range tr.Events() {
		if e.Flag {
			finals[e.Name] = e
		}
	}
	f, fOK := finals["f"]
	g, gOK := finals["g"]
	if !fOK || !gOK {
		t.Fatalf("finals = %+v", finals)
	}
	if g.At < f.At {
		t.Error("child finalized before parent")
	}
}
