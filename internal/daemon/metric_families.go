package daemon

import (
	"sort"

	"anytime/internal/telemetry"
)

// MetricFamilies is the daemon's full metric inventory: every family name
// an anytimed process can register, compiled from the same constants the
// instruments are created with. It exists so documentation cannot drift
// from the registry: the doc-sync test diffs the README and
// docs/OPERATIONS.md metric tables against this list, and the /debug/vars
// test asserts a live server never exposes a family missing from it.
// Adding an instrument without extending this list (and the docs) fails
// CI.
//
// The router's anytime_router_* families are deliberately absent: they
// belong to cmd/anytimerouter's registry, not the daemon's.
func MetricFamilies() []string {
	fams := []string{
		// HTTP layer and delivery accuracy (internal/daemon).
		metricHTTPRequests,
		metricHTTPDuration,
		metricHTTPInFlight,
		metricSlotsInUse,
		metricSlotsRejected,
		metricDeliveredSNR,
		metricBuildInfo,
		metricUptime,

		// Serving runtime (internal/serve via telemetry.ServeHooks).
		telemetry.MetricServePoolGets,
		telemetry.MetricServePoolPuts,
		telemetry.MetricServeQueueDepthMax,
		telemetry.MetricServeQueueWait,
		telemetry.MetricServeRejects,
		telemetry.MetricServeDeliveries,
		telemetry.MetricServeDeliveryTime,

		// Snapshot cache: hits, misses and seeds from the cache.* events
		// (telemetry.ServeHooks), the rest from snapcache.Stats at collection.
		telemetry.MetricSnapcacheHits,
		telemetry.MetricSnapcacheMisses,
		telemetry.MetricSnapcacheEvictions,
		telemetry.MetricSnapcacheBytes,
		telemetry.MetricSnapcacheEntries,
		telemetry.MetricSnapcacheSeeds,

		// Flight recorder (reqtrace.Recorder.Stats at collection).
		telemetry.MetricReqtraceRecorded,
		telemetry.MetricReqtraceSampledOut,
		telemetry.MetricReqtraceEvicted,

		// Pipeline layer (internal/telemetry core bindings, per run).
		telemetry.MetricCheckpointLatency,
		telemetry.MetricCheckpointTotal,
		telemetry.MetricPauseWait,
		telemetry.MetricStageDuration,
		telemetry.MetricStagesActive,
		telemetry.MetricRunsTotal,
		telemetry.MetricRunDuration,
		telemetry.MetricAutomataActive,
		telemetry.MetricBufferPublish,
		telemetry.MetricBufferVersion,
		telemetry.MetricBufferFinal,
		telemetry.MetricPublishInterval,
		telemetry.MetricStreamDepth,
		telemetry.MetricStreamDepthMax,
	}
	sort.Strings(fams)
	return fams
}
