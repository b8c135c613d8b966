package anytime

import (
	"io"
	"net/http"

	"anytime/internal/core"
	"anytime/internal/harness"
	"anytime/internal/telemetry"
)

// Hooks is the automaton's observer interface (in the style of
// net/http/httptrace.ClientTrace): optional callbacks fired at lifecycle
// and scheduling edges. Attach one with Automaton.SetHooks before Start; an
// automaton with no hooks pays only a nil check on its hot paths.
type Hooks = core.Hooks

// MetricsRegistry is a lock-cheap registry of counters, gauges, and atomic
// log-scale histograms — the runtime observability substrate behind
// anytimed's /metrics endpoint and the anytime CLI's -telemetry summary.
// Instruments are created on first use and safe for concurrent update from
// every stage goroutine.
type MetricsRegistry = telemetry.Registry

// MetricLabels attach dimensions (stage, buffer, route) to an instrument.
type MetricLabels = telemetry.Labels

// Counter is a monotonically increasing counter.
type Counter = telemetry.Counter

// Gauge is an instantaneous signed value (queue depth, in-flight work).
type Gauge = telemetry.Gauge

// MetricHistogram is a lock-free fixed log2-bucket histogram.
type MetricHistogram = telemetry.Histogram

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// PipelineHooks returns a Hooks value recording a running automaton's
// scheduling behavior (checkpoint latency, pause waits, stage and run
// durations, active counts) into reg. Attach with Automaton.SetHooks before
// Start; one value may be shared by many automata.
func PipelineHooks(reg *MetricsRegistry) *Hooks { return telemetry.PipelineHooks(reg) }

// ObserveBuffer registers a telemetry observer on buf recording publish
// counts, the version watermark, finalization, and publish intervals into
// reg. It coexists with a Tracer on the same buffer; attach before Start.
func ObserveBuffer[T any](reg *MetricsRegistry, buf *Buffer[T]) {
	telemetry.ObserveBuffer(reg, buf)
}

// ObserveStream registers a depth observer on the synchronous edge st,
// recording the in-flight update count and its high-water mark into reg
// under the given edge label. Attach before Start.
func ObserveStream[X any](reg *MetricsRegistry, st *Stream[X], edge string) {
	telemetry.ObserveStream(reg, st, edge)
}

// WriteMetrics renders every registered series in the Prometheus text
// exposition format.
func WriteMetrics(reg *MetricsRegistry, w io.Writer) error { return reg.WritePrometheus(w) }

// MetricsHandler returns an http.Handler serving the registry in Prometheus
// text exposition format — mount it at /metrics.
func MetricsHandler(reg *MetricsRegistry) http.Handler { return reg.Handler() }

// WriteMetricsSummary renders a human-readable table of every series — the
// report the anytime CLI prints on exit with -telemetry.
func WriteMetricsSummary(reg *MetricsRegistry, w io.Writer) error { return reg.WriteSummary(w) }

// AccuracyRecorder samples a buffer's accuracy-versus-wallclock curve — the
// live equivalent of the paper's §V runtime–accuracy profiles. SNR against
// the precise reference is computed lazily at export time, so recording
// never delays the pipeline being measured.
type AccuracyRecorder = harness.Collector

// AccuracySample is one exported point of an accuracy-versus-time curve.
type AccuracySample = harness.Sample

// NewAccuracyRecorder returns a recorder comparing published images against
// the precise reference ref. Call its Begin immediately before Start.
func NewAccuracyRecorder(ref *Image) *AccuracyRecorder {
	return harness.NewCollector(ref, 0)
}

// ObserveAccuracy attaches rec as a publish observer of buf; it coexists
// with tracers and metric observers on the same buffer. Attach before
// Start.
func ObserveAccuracy(rec *AccuracyRecorder, buf *Buffer[*Image]) {
	buf.OnPublish(rec.Observe)
}

// Metric names of the pipeline instrument families PipelineHooks,
// ObserveBuffer, and ObserveStream register, so downstream dashboards and
// tests don't hardcode strings.
const (
	MetricCheckpointLatency = telemetry.MetricCheckpointLatency
	MetricCheckpointTotal   = telemetry.MetricCheckpointTotal
	MetricPauseWait         = telemetry.MetricPauseWait
	MetricStageDuration     = telemetry.MetricStageDuration
	MetricStagesActive      = telemetry.MetricStagesActive
	MetricRunsTotal         = telemetry.MetricRunsTotal
	MetricRunDuration       = telemetry.MetricRunDuration
	MetricAutomataActive    = telemetry.MetricAutomataActive
	MetricBufferPublish     = telemetry.MetricBufferPublish
	MetricBufferVersion     = telemetry.MetricBufferVersion
	MetricBufferFinal       = telemetry.MetricBufferFinal
	MetricPublishInterval   = telemetry.MetricPublishInterval
	MetricStreamDepth       = telemetry.MetricStreamDepth
	MetricStreamDepthMax    = telemetry.MetricStreamDepthMax
)
