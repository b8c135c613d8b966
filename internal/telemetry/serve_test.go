package telemetry

import (
	"testing"
	"time"

	"anytime/internal/reqtrace"
)

// TestServeHooksRecord exercises every binding in ServeHooks by sending the
// sink the events the serving runtime emits for an untraced request and
// reading the series back.
func TestServeHooksRecord(t *testing.T) {
	reg := NewRegistry()
	sink := ServeHooks(reg)
	var tr *reqtrace.Trace

	sink(tr.PoolGet("blur", false))
	sink(tr.PoolGet("blur", true))
	sink(tr.PoolGet("blur", true))
	sink(tr.PoolPut("blur", true))
	sink(tr.PoolPut("blur", false))
	if got := reg.Counter(MetricServePoolGets, Labels{"pool": "blur", "source": "warm"}).Value(); got != 2 {
		t.Errorf("warm gets = %d, want 2", got)
	}
	if got := reg.Counter(MetricServePoolGets, Labels{"pool": "blur", "source": "fresh"}).Value(); got != 1 {
		t.Errorf("fresh gets = %d, want 1", got)
	}
	if got := reg.Counter(MetricServePoolPuts, Labels{"pool": "blur", "fate": "discarded"}).Value(); got != 1 {
		t.Errorf("discarded puts = %d, want 1", got)
	}

	sink(tr.QueueEnter(3))
	sink(tr.QueueEnter(1)) // watermark must not regress
	if got := reg.Gauge(MetricServeQueueDepthMax, nil).Value(); got != 3 {
		t.Errorf("queue depth watermark = %d, want 3", got)
	}
	sink(tr.QueueGrant(0))
	sink(tr.QueueGrant(5 * time.Millisecond))
	if got := reg.DurationHistogram(MetricServeQueueWait, nil).Count(); got != 2 {
		t.Errorf("queue wait observations = %d, want 2", got)
	}
	sink(tr.QueueReject(8, 0))                   // the waiting room was full
	sink(tr.QueueReject(2, 30*time.Millisecond)) // the wait ahead spent the budget
	if got := reg.Counter(MetricServeRejects, nil).Value(); got != 2 {
		t.Errorf("rejects = %d, want 2: capacity and time refusals both count", got)
	}

	sink(tr.RunFinish("stopped", false, 10*time.Millisecond))
	sink(tr.RunFinish("precise", true, 20*time.Millisecond))
	if got := reg.Counter(MetricServeDeliveries, Labels{"outcome": "approximate"}).Value(); got != 1 {
		t.Errorf("approximate deliveries = %d, want 1", got)
	}
	if got := reg.Counter(MetricServeDeliveries, Labels{"outcome": "precise"}).Value(); got != 1 {
		t.Errorf("precise deliveries = %d, want 1", got)
	}
	if got := reg.DurationHistogram(MetricServeDeliveryTime, Labels{"outcome": "precise"}).Count(); got != 1 {
		t.Errorf("precise delivery observations = %d, want 1", got)
	}
}
