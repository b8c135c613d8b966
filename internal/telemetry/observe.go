package telemetry

import (
	"sync"
	"time"

	"anytime/internal/core"
)

// Metric names shared by the bindings below. Exported so exposition
// consumers (tests, dashboards) don't have to hardcode strings.
const (
	MetricCheckpointLatency = "anytime_stage_checkpoint_latency_seconds"
	MetricCheckpointTotal   = "anytime_stage_checkpoints_total"
	MetricPauseWait         = "anytime_stage_pause_wait_seconds"
	MetricStageDuration     = "anytime_stage_duration_seconds"
	MetricStagesActive      = "anytime_stages_active"
	MetricRunsTotal         = "anytime_automaton_runs_total"
	MetricRunDuration       = "anytime_automaton_duration_seconds"
	MetricAutomataActive    = "anytime_automata_active"
	MetricBufferPublish     = "anytime_buffer_publish_total"
	MetricBufferVersion     = "anytime_buffer_version"
	MetricBufferFinal       = "anytime_buffer_final"
	MetricPublishInterval   = "anytime_buffer_publish_interval_seconds"
	MetricStreamDepth       = "anytime_stream_depth"
	MetricStreamDepthMax    = "anytime_stream_depth_max"
)

// PipelineHooks returns a core.Hooks that records a running automaton's
// scheduling behavior into reg:
//
//   - anytime_stage_checkpoint_latency_seconds{stage}: histogram of the
//     interval between a stage's successive checkpoints — the unit-of-work
//     latency that bounds how promptly Pause and Stop take effect.
//   - anytime_stage_checkpoints_total{stage}: checkpoint count.
//   - anytime_stage_pause_wait_seconds{stage}: histogram of time spent
//     blocked at the pause gate (only checkpoints that actually waited).
//   - anytime_stage_duration_seconds{stage}: stage loop lifetime.
//   - anytime_stages_active: currently running stage goroutines.
//   - anytime_automaton_runs_total{outcome}: finished runs by outcome
//     (precise | stopped | failed).
//   - anytime_automaton_duration_seconds{outcome}: run wall time.
//   - anytime_automata_active: automata currently between Start and finish.
//
// Attach the result with Automaton.SetHooks before Start. Build one value
// per automaton: the checkpoint interval is measured per stage name, so
// two automata sharing a value would interleave their checkpoints and
// under-read the latency. Many values may share one registry; all
// instruments are safe for concurrent use.
func PipelineHooks(reg *Registry) *core.Hooks {
	p := &pipelineObserver{reg: reg}
	return &core.Hooks{
		AutomatonStart:  p.automatonStart,
		AutomatonFinish: p.automatonFinish,
		StageStart:      p.stageStart,
		StageFinish:     p.stageFinish,
		Checkpoint:      p.checkpoint,
	}
}

// pipelineObserver caches per-stage instrument handles so the hot
// checkpoint path is two atomic adds plus one sync.Map hit.
type pipelineObserver struct {
	reg *Registry

	// perStage maps stage name → *stageInstruments. Stage names recur
	// across runs (a server builds the same pipeline per request), so the
	// map stabilizes immediately and reads are lock-free.
	perStage sync.Map
}

type stageInstruments struct {
	latency     *Histogram
	checkpoints *Counter
	pauseWait   *Histogram
	duration    *Histogram

	// lastCheckpoint is the previous checkpoint's time (zero = none yet).
	// A stage runs on one goroutine, so with one hooks value per automaton
	// the mutex is uncontended; it keeps a value wrongly shared between
	// automata race-free.
	mu             sync.Mutex
	lastCheckpoint time.Time
}

func (p *pipelineObserver) stage(name string) *stageInstruments {
	if v, ok := p.perStage.Load(name); ok {
		return v.(*stageInstruments)
	}
	labels := Labels{"stage": name}
	si := &stageInstruments{
		latency:     p.reg.DurationHistogram(MetricCheckpointLatency, labels),
		checkpoints: p.reg.Counter(MetricCheckpointTotal, labels),
		pauseWait:   p.reg.DurationHistogram(MetricPauseWait, labels),
		duration:    p.reg.DurationHistogram(MetricStageDuration, labels),
	}
	v, _ := p.perStage.LoadOrStore(name, si)
	return v.(*stageInstruments)
}

func (p *pipelineObserver) automatonStart(stages int) {
	p.reg.Gauge(MetricAutomataActive, nil).Inc()
}

func (p *pipelineObserver) automatonFinish(outcome error, elapsed time.Duration) {
	p.reg.Gauge(MetricAutomataActive, nil).Dec()
	labels := Labels{"outcome": core.Outcome(outcome)}
	p.reg.Counter(MetricRunsTotal, labels).Inc()
	p.reg.DurationHistogram(MetricRunDuration, labels).ObserveDuration(elapsed)
}

func (p *pipelineObserver) stageStart(stage string) {
	p.reg.Gauge(MetricStagesActive, nil).Inc()
	si := p.stage(stage)
	si.mu.Lock()
	si.lastCheckpoint = time.Time{} // fresh run: no prior checkpoint
	si.mu.Unlock()
}

func (p *pipelineObserver) stageFinish(stage string, err error, elapsed time.Duration) {
	p.reg.Gauge(MetricStagesActive, nil).Dec()
	p.stage(stage).duration.ObserveDuration(elapsed)
}

func (p *pipelineObserver) checkpoint(stage string, wait time.Duration) {
	si := p.stage(stage)
	si.checkpoints.Inc()
	if wait > 0 {
		si.pauseWait.ObserveDuration(wait)
	}
	now := time.Now()
	si.mu.Lock()
	last := si.lastCheckpoint
	si.lastCheckpoint = now
	si.mu.Unlock()
	if !last.IsZero() {
		// Exclude pause time: the interval measures the stage's work
		// between checkpoints, not the operator holding the gate shut.
		si.latency.ObserveDuration(now.Sub(last) - wait)
	}
}

// ObserveBuffer registers a telemetry observer on buf, recording into reg:
//
//   - anytime_buffer_publish_total{buffer}: publish count.
//   - anytime_buffer_version{buffer}: highest published version watermark.
//   - anytime_buffer_final{buffer}: 1 once the precise output is published.
//   - anytime_buffer_publish_interval_seconds{buffer}: histogram of the
//     time between successive publishes (the output refresh rate).
//
// Like any publish observer it must be attached before the automaton
// starts, and it coexists with a reqtrace.Trace recording the same buffer.
func ObserveBuffer[T any](reg *Registry, buf *core.Buffer[T]) {
	labels := Labels{"buffer": buf.Name()}
	publishes := reg.Counter(MetricBufferPublish, labels)
	version := reg.Gauge(MetricBufferVersion, labels)
	final := reg.Gauge(MetricBufferFinal, labels)
	interval := reg.DurationHistogram(MetricPublishInterval, labels)
	var mu sync.Mutex
	var lastPublish time.Time
	buf.OnPublish(func(s core.Snapshot[T]) {
		publishes.Inc()
		version.SetMax(int64(s.Version))
		if s.Final {
			final.Set(1)
		}
		now := time.Now()
		mu.Lock()
		last := lastPublish
		lastPublish = now
		mu.Unlock()
		if !last.IsZero() {
			interval.ObserveDuration(now.Sub(last))
		}
	})
}

// ObserveStream registers a depth observer on the synchronous edge st,
// recording into reg:
//
//   - anytime_stream_depth{edge}: in-flight updates after the latest
//     send/receive.
//   - anytime_stream_depth_max{edge}: deepest the queue has been — how far
//     the consumer fell behind its producer.
//
// It must be attached before the automaton starts.
func ObserveStream[X any](reg *Registry, st *core.Stream[X], edge string) {
	labels := Labels{"edge": edge}
	depth := reg.Gauge(MetricStreamDepth, labels)
	depthMax := reg.Gauge(MetricStreamDepthMax, labels)
	st.OnDepth(func(d, capacity int) {
		depth.Set(int64(d))
		depthMax.SetMax(int64(d))
	})
}
