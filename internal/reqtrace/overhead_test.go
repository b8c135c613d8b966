package reqtrace

import (
	"context"
	"testing"
	"time"
)

// The disabled tracer's contract, mirroring core's hooks_overhead_test: a
// request served with tracing off (nil trace, unbound slot, bare context)
// must pay nothing measurable at any instrumentation site — no allocations,
// and per-site cost on the order of a pointer check. BenchmarkDisabled*
// report the per-site nanoseconds; TestDisabledTracerZeroAlloc pins the
// allocation count at exactly zero.

func TestDisabledTracerZeroAlloc(t *testing.T) {
	ctx := context.Background()
	sites := []struct {
		name string
		fn   func()
	}{
		{"context miss + helpers", func() {
			tr := FromContext(ctx)
			tr.QueueEnter(1)
			tr.QueueGrant(0)
			tr.PoolGet("p", true)
			tr.RunStart(time.Millisecond)
			tr.Publish("buf", 1, 64, false)
			tr.DeadlineFired(time.Millisecond)
			tr.Deliver(1, true, false, 0, time.Millisecond)
			tr.Finish(200)
		}},
		{"nil slot publish", func() {
			var s *Slot
			s.Publish("buf", 1, 64, false)
			s.OnReset()
			s.Bind(nil)
			s.Unbind()
		}},
		{"unbound slot publish", func() {
			s := unboundSlot
			s.Publish("buf", 1, 64, false)
			s.OnReset()
		}},
	}
	for _, site := range sites {
		if allocs := testing.AllocsPerRun(1000, site.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/run, want 0", site.name, allocs)
		}
	}
}

// unboundSlot is shared so AllocsPerRun measures Publish, not Slot
// construction.
var unboundSlot = &Slot{}

// BenchmarkDisabledTracePublish is the publish hot path with tracing off:
// the nil-trace method call every Buffer.Publish pays when no request trace
// exists. This is the number the flight recorder must keep at "a few ns, 0
// allocs" for the tracer to stay always-on.
func BenchmarkDisabledTracePublish(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Publish("buf", uint64(i), 64, false)
	}
}

// BenchmarkDisabledSlotPublish is the pooled-observer variant: one atomic
// load finds no bound trace.
func BenchmarkDisabledSlotPublish(b *testing.B) {
	s := &Slot{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Publish("buf", uint64(i), 64, false)
	}
}

// BenchmarkDisabledFromContext is the serve-layer entry cost with no trace
// bound: one context value miss.
func BenchmarkDisabledFromContext(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := FromContext(ctx)
		tr.QueueGrant(0)
	}
}

// BenchmarkEnabledSlotPublish is the contrast figure: the bound-slot publish
// path a traced request actually pays (mutex + event append, amortized over
// the preallocated event slice).
func BenchmarkEnabledSlotPublish(b *testing.B) {
	s := &Slot{}
	_, tr := New(context.Background(), "bench")
	s.Bind(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Publish("buf", uint64(i), 64, false)
		if i%1024 == 1023 {
			// Keep the event slice bounded so the benchmark measures the
			// append path, not unbounded growth.
			b.StopTimer()
			tr.mu.Lock()
			tr.events = tr.events[:0]
			tr.mu.Unlock()
			b.StartTimer()
		}
	}
}
