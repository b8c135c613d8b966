package telemetry

import "anytime/internal/reqtrace"

// Metric names of the serving-runtime binding, exported like the pipeline
// names above.
const (
	MetricServePoolGets      = "anytime_serve_pool_gets_total"
	MetricServePoolPuts      = "anytime_serve_pool_puts_total"
	MetricServeQueueDepthMax = "anytime_serve_queue_depth_max"
	MetricServeQueueWait     = "anytime_serve_queue_wait_seconds"
	MetricServeRejects       = "anytime_serve_rejected_total"
	MetricServeDeliveries    = "anytime_serve_deliveries_total"
	MetricServeDeliveryTime  = "anytime_serve_delivery_seconds"
)

// Metric names of the flight recorder. They mirror the Stats() the recorder
// keeps and are filled in at collection time (Registry.OnCollect) by
// whoever owns the recorder.
const (
	MetricReqtraceRecorded   = "anytime_reqtrace_recorded_total"
	MetricReqtraceSampledOut = "anytime_reqtrace_sampled_out_total"
	MetricReqtraceEvicted    = "anytime_reqtrace_evicted_total"
)

// ServeHooks returns the reqtrace.Sink recording the serving runtime's
// behavior into reg — each series is derived from the same event the
// request's trace holds:
//
//   - pool.get → anytime_serve_pool_gets_total{pool,source}: checkouts by
//     source (warm = reused from the idle set, fresh = built on demand).
//     The warm fraction is the pool hit rate.
//   - pool.put → anytime_serve_pool_puts_total{pool,fate}: check-ins by
//     fate (retained | discarded).
//   - queue.enter → anytime_serve_queue_depth_max: high-watermark of
//     requests waiting for an execution slot (sampled at each enqueue;
//     read serve.Queue.Depth for the instantaneous value).
//   - queue.grant → anytime_serve_queue_wait_seconds: histogram of
//     slot-wait time, including the zero-wait fast path.
//   - queue.reject → anytime_serve_rejected_total: requests turned away by
//     admission control, whether the waiting room was full or the wait
//     ahead would have spent the request's budget.
//   - run.finish → anytime_serve_deliveries_total{outcome}: delivered
//     snapshots by outcome (precise | approximate), and
//     anytime_serve_delivery_seconds{outcome}: request run time from
//     automaton start to delivery, excluding queue wait.
//
// One sink serves every pool and queue in the process; all instruments are
// safe for concurrent use.
func ServeHooks(reg *Registry) reqtrace.Sink {
	queueDepth := reg.Gauge(MetricServeQueueDepthMax, nil)
	queueWait := reg.DurationHistogram(MetricServeQueueWait, nil)
	rejects := reg.Counter(MetricServeRejects, nil)
	return func(e reqtrace.Event) {
		switch e.Kind {
		case reqtrace.KindPoolGet:
			reg.Counter(MetricServePoolGets, Labels{"pool": e.Name, "source": pick(e.Flag, "warm", "fresh")}).Inc()
		case reqtrace.KindPoolPut:
			reg.Counter(MetricServePoolPuts, Labels{"pool": e.Name, "fate": pick(e.Flag, "retained", "discarded")}).Inc()
		case reqtrace.KindQueueEnter:
			queueDepth.SetMax(int64(e.N))
		case reqtrace.KindQueueGrant:
			queueWait.ObserveDuration(e.Dur)
		case reqtrace.KindQueueReject:
			rejects.Inc()
		case reqtrace.KindRunFinish:
			labels := Labels{"outcome": pick(e.Flag, "precise", "approximate")}
			reg.Counter(MetricServeDeliveries, labels).Inc()
			reg.DurationHistogram(MetricServeDeliveryTime, labels).ObserveDuration(e.Dur)
		}
	}
}

// pick is the label-value ternary the event bindings share.
func pick(cond bool, yes, no string) string {
	if cond {
		return yes
	}
	return no
}
