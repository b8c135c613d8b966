package telemetry

import (
	"context"
	"math/bits"
	"strings"
	"testing"
	"time"

	"anytime/internal/core"
	"anytime/internal/reqtrace"
)

// runInstrumentedPipeline builds and runs a two-stage pipeline (diffusive
// producer → synchronous distributive consumer) with full telemetry
// attached: pipeline hooks, both buffer observers, and the stream depth
// observer. It returns the registry for assertions. Run under -race this is
// the ISSUE's "telemetry attached in at least one multi-stage pipeline
// test": every stage goroutine writes the same registry.
func runInstrumentedPipeline(t *testing.T, reg *Registry) {
	t.Helper()
	const total = 256
	st, err := core.NewStream[int](8)
	if err != nil {
		t.Fatal(err)
	}
	ObserveStream(reg, st, "sum-edge")
	prodOut := core.NewBuffer[int]("producer-out", nil)
	ObserveBuffer(reg, prodOut)
	sumOut := core.NewBuffer[int64]("sum-out", nil)
	ObserveBuffer(reg, sumOut)

	a := core.New()
	if err := a.AddStage("producer", func(c *core.Context) error {
		for i := 0; i < total; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if err := st.Send(c, core.Update[int]{Seq: i + 1, Data: i, Last: i == total-1}); err != nil {
				return err
			}
			if i%32 == 31 {
				if _, err := prodOut.Publish(i+1, i == total-1); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("sum", func(c *core.Context) error {
		var acc int64
		return core.SyncConsume(c, st, func(u core.Update[int]) error {
			acc += int64(u.Data)
			if u.Seq%32 == 0 || u.Last {
				if _, err := sumOut.Publish(acc, u.Last); err != nil {
					return err
				}
			}
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	a.SetHooks(PipelineHooks(reg))
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter(MetricRunsTotal, Labels{"outcome": "precise"}).Value(); v != 1 {
		t.Fatalf("precise runs = %d after Wait, want 1", v)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPipelineHooksRecordFullRun(t *testing.T) {
	reg := NewRegistry()
	runInstrumentedPipeline(t, reg)

	if v := reg.Counter(MetricBufferPublish, Labels{"buffer": "producer-out"}).Value(); v != 8 {
		t.Errorf("producer publishes = %d, want 8", v)
	}
	if v := reg.Counter(MetricBufferPublish, Labels{"buffer": "sum-out"}).Value(); v != 8 {
		t.Errorf("sum publishes = %d, want 8", v)
	}
	if v := reg.Gauge(MetricBufferVersion, Labels{"buffer": "sum-out"}).Value(); v != 8 {
		t.Errorf("sum version watermark = %d, want 8", v)
	}
	if v := reg.Gauge(MetricBufferFinal, Labels{"buffer": "sum-out"}).Value(); v != 1 {
		t.Errorf("sum final gauge = %d, want 1", v)
	}
	for _, stage := range []string{"producer", "sum"} {
		if v := reg.Counter(MetricCheckpointTotal, Labels{"stage": stage}).Value(); v == 0 {
			t.Errorf("stage %s recorded no checkpoints", stage)
		}
		if v := reg.DurationHistogram(MetricStageDuration, Labels{"stage": stage}).Count(); v != 1 {
			t.Errorf("stage %s duration observations = %d, want 1", stage, v)
		}
	}
	if v := reg.DurationHistogram(MetricCheckpointLatency, Labels{"stage": "producer"}).Count(); v == 0 {
		t.Error("no checkpoint latency observations")
	}
	if v := reg.Gauge(MetricStagesActive, nil).Value(); v != 0 {
		t.Errorf("stages active after finish = %d", v)
	}
	if v := reg.Gauge(MetricAutomataActive, nil).Value(); v != 0 {
		t.Errorf("automata active after finish = %d", v)
	}
	if v := reg.Gauge(MetricStreamDepthMax, Labels{"edge": "sum-edge"}).Value(); v < 0 {
		t.Errorf("stream depth max = %d", v)
	}
	if v := reg.DurationHistogram(MetricRunDuration, Labels{"outcome": "precise"}).Count(); v != 1 {
		t.Errorf("run duration observations = %d, want 1", v)
	}

	// The whole registry must render as valid exposition including the
	// acceptance-criteria families.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"anytime_stage_checkpoint_latency_seconds_bucket",
		`anytime_buffer_publish_total{buffer="sum-out"} 8`,
		"anytime_automaton_runs_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestStoppedRunRecordsStoppedOutcome(t *testing.T) {
	reg := NewRegistry()
	out := core.NewBuffer[int]("out", nil)
	ObserveBuffer(reg, out)
	a := core.New()
	if err := a.AddStage("spin", func(c *core.Context) error {
		i := 0
		for {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			i++
			if _, err := out.Publish(i, false); err != nil {
				return err
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	a.SetHooks(PipelineHooks(reg))
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return reg.Counter(MetricBufferPublish, Labels{"buffer": "out"}).Value() > 2
	})
	a.Stop()
	if v := reg.Counter(MetricRunsTotal, Labels{"outcome": "stopped"}).Value(); v != 1 {
		t.Errorf("stopped runs = %d after Stop, want 1", v)
	}
	if v := reg.Gauge(MetricBufferFinal, Labels{"buffer": "out"}).Value(); v != 0 {
		t.Errorf("final gauge = %d for an interrupted run", v)
	}
}

// TestTracerAndTelemetryShareBuffer: a buffer with both a request trace
// and a telemetry observer attached must deliver every publish to both
// (the seed's OnPublish silently replaced the previous observer).
func TestTracerAndTelemetryShareBuffer(t *testing.T) {
	reg := NewRegistry()
	_, tr := reqtrace.New(context.Background(), "shared")
	out := core.NewBuffer[int]("shared", nil)
	out.OnPublish(func(s core.Snapshot[int]) { tr.Publish(out.Name(), uint64(s.Version), 0, s.Final) })
	ObserveBuffer(reg, out)

	a := core.New()
	const publishes = 6
	if err := a.AddStage("s", func(c *core.Context) error {
		for i := 1; i <= publishes; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if _, err := out.Publish(i, i == publishes); err != nil {
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
	if got := len(tr.Events()); got != publishes {
		t.Errorf("tracer saw %d events, want %d", got, publishes)
	}
	if got := reg.Counter(MetricBufferPublish, Labels{"buffer": "shared"}).Value(); got != publishes {
		t.Errorf("telemetry saw %d publishes, want %d", got, publishes)
	}
	if events := tr.Events(); len(events) == 0 || !events[len(events)-1].Flag {
		t.Error("tracer missed the final publish")
	}
	if got := reg.Gauge(MetricBufferFinal, Labels{"buffer": "shared"}).Value(); got != 1 {
		t.Error("telemetry missed the final publish")
	}
}

func TestPauseWaitRecorded(t *testing.T) {
	reg := NewRegistry()
	a := core.New()
	started := make(chan struct{})
	var once bool
	if err := a.AddStage("s", func(c *core.Context) error {
		for i := 0; i < 2; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if !once {
				once = true
				close(started)
				time.Sleep(5 * time.Millisecond) // let the test pause the gate
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	a.SetHooks(PipelineHooks(reg))
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-started
	a.Pause()
	time.Sleep(20 * time.Millisecond)
	a.Resume()
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if v := reg.DurationHistogram(MetricPauseWait, Labels{"stage": "s"}).Count(); v == 0 {
		t.Error("pause wait histogram recorded nothing despite a held gate")
	}
}

// TestCheckpointIntervalPerAutomaton: two automata run a same-named stage
// side by side, each with its own PipelineHooks on one registry. Their
// checkpoints alternate through a channel handoff: each automaton's own
// checkpoints are at least d apart, while the other's lands right after
// one of them. Every recorded interval must be at least d; a hooks value
// shared by both would time the gap between the two automata instead.
func TestCheckpointIntervalPerAutomaton(t *testing.T) {
	const (
		d      = 1 << 21 * time.Nanosecond // a power of two: bucket edges fall on d
		rounds = 8
	)
	reg := NewRegistry()
	turnA, turnB := make(chan struct{}, 1), make(chan struct{}, 1)
	turnA <- struct{}{}
	stage := func(mine, theirs chan struct{}, pause time.Duration) func(*core.Context) error {
		return func(c *core.Context) error {
			for range rounds {
				<-mine
				if err := c.Checkpoint(); err != nil {
					return err
				}
				time.Sleep(pause)
				theirs <- struct{}{}
			}
			return nil
		}
	}
	var automata []*core.Automaton
	for _, loop := range []func(*core.Context) error{stage(turnA, turnB, 0), stage(turnB, turnA, d)} {
		a := core.New()
		if err := a.AddStage("s", loop); err != nil {
			t.Fatal(err)
		}
		a.SetHooks(PipelineHooks(reg))
		if err := a.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		automata = append(automata, a)
	}
	for _, a := range automata {
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	h := reg.DurationHistogram(MetricCheckpointLatency, Labels{"stage": "s"})
	if got, want := h.Count(), uint64(2*(rounds-1)); got != want {
		t.Fatalf("%d intervals recorded, want %d", got, want)
	}
	// Bucket i holds values below 2^i, so buckets up to log2(d) hold
	// exactly the intervals below d.
	for i := 0; i < bits.Len64(uint64(d)); i++ {
		if n := h.buckets[i].Load(); n > 0 {
			t.Errorf("%d intervals below %v (under 2^%d ns): the automata's checkpoint clocks interleaved", n, d, i)
		}
	}
}
