package anytime

import (
	"context"
	"io"

	"anytime/internal/core"
	"anytime/internal/reqtrace"
)

// Tracer records the publish events of any number of buffers and renders
// them as an ASCII timeline (the layout of the paper's Figure 2). It is the
// same per-request trace anytimed keeps in its flight recorder. Pure
// observation: it never perturbs the pipeline beyond a timestamp.
type Tracer = reqtrace.Trace

// TraceEvent is one recorded publish: Name is the buffer, Version the
// snapshot's version, Flag marks the final one.
type TraceEvent = reqtrace.Event

// NewTracer returns an empty tracer whose time axis starts now: call it
// immediately before starting the automaton.
func NewTracer() *Tracer {
	_, t := reqtrace.New(context.Background(), "")
	return t
}

// TraceBuffer registers the tracer as one of buf's publish observers. Call
// before the automaton starts; tracers and telemetry observers may share a
// buffer.
func TraceBuffer[T any](t *Tracer, buf *Buffer[T]) {
	name := buf.Name()
	buf.OnPublish(func(s Snapshot[T]) { t.Publish(name, uint64(s.Version), 0, s.Final) })
}

// GraphBuilder declares an automaton as an explicit dataflow DAG and
// validates the model's structural properties (single writer per buffer,
// acyclicity) before construction.
type GraphBuilder = core.GraphBuilder

// NewGraph returns an empty graph builder.
func NewGraph() *GraphBuilder { return core.NewGraph() }

// WriteTimeline renders the tracer's publishes to w with the given width.
func WriteTimeline(t *Tracer, w io.Writer, width int) error { return t.WriteTimeline(w, width) }
