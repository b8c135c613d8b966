package main

// metricDef names one metric and its unit. BENCHMARK.json repeats these
// lists with direction and bound; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the system would see. Every
// workload reports every one of them; README.md says what each means on each
// workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"first_output_x", "x"},
	{"answer_at_x", "x"},
	{"snr_mean_db", "dB"},
	{"ok_share", "ratio"},
}

// perLayerDefs are the metrics of single layers, named after this
// repository's modules. A traced run reports all of them; a layer the
// workload does not exercise reads 0 (its idle value), never a guess.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	var d []metricDef
	for _, app := range appNames {
		d = append(d,
			metricDef{"apps." + app + ".baseline_ms", "ms"},
			metricDef{"apps." + app + ".baseline_par_ms", "ms"},
			metricDef{"apps." + app + ".precise_at_x", "x"},
			metricDef{"apps." + app + ".first_output_x", "x"},
			metricDef{"core." + app + ".to_precise_ms", "ms"},
			metricDef{"core." + app + ".first_output_ms", "ms"},
			metricDef{"core." + app + ".overhead_ms", "ms"},
			metricDef{"core." + app + ".versions", "count"},
			metricDef{"core." + app + ".snr_at_1x_db", "dB"},
			metricDef{"core." + app + ".par_speedup_x", "x"},
		)
	}
	return append(d,
		metricDef{"core.publish_ns", "ns"},
		metricDef{"core.latest_ns", "ns"},
		metricDef{"core.stop_latency_ms", "ms"},
		metricDef{"core.reset_us", "us"},
		metricDef{"core.alloc_mb_per_run", "MB"},
		metricDef{"pix.snapshot_clone_us", "us"},
		metricDef{"pix.snapshot_tiles_us", "us"},
		metricDef{"pix.encode_pnm_ms", "ms"},
		metricDef{"pix.encode_pnm_bytes", "bytes"},
		metricDef{"pix.encode_req_ms", "ms"},
		metricDef{"metrics.snr_us", "us"},
		metricDef{"metrics.snr_calls_per_req", "count"},
		metricDef{"metrics.snr_req_ms", "ms"},
		metricDef{"serve.queue_cycle_ns", "ns"},
		metricDef{"serve.pool_cycle_us", "us"},
		metricDef{"serve.run_overrun_ms", "ms"},
		metricDef{"serve.seed_us", "us"},
		metricDef{"serve.admit_us", "us"},
		metricDef{"serve.run_ms", "ms"},
		metricDef{"serve.checkin_ms", "ms"},
		metricDef{"serve.queue_wait_ms", "ms"},
		metricDef{"serve.rejected_share", "ratio"},
		metricDef{"serve.shed_factor_mean", "ratio"},
		metricDef{"serve.version_p50", "count"},
		metricDef{"snapcache.get_hit_ns", "ns"},
		metricDef{"snapcache.get_miss_ns", "ns"},
		metricDef{"snapcache.put_us", "us"},
		metricDef{"snapcache.req_ms", "ms"},
		metricDef{"snapcache.hit_share", "ratio"},
		metricDef{"snapcache.evictions_per_req", "count"},
		metricDef{"daemon.handler_ms", "ms"},
		metricDef{"daemon.http_ms", "ms"},
		metricDef{"daemon.server_elapsed_ms", "ms"},
		metricDef{"daemon.write_ms", "ms"},
		metricDef{"daemon.glue_ms", "ms"},
		metricDef{"cluster.hop_ms", "ms"},
		metricDef{"cluster.ring_lookup_ns", "ns"},
		metricDef{"cluster.hedged_share", "ratio"},
		metricDef{"client.samples", "count"},
		metricDef{"client.latency_p50_ms", "ms"},
		metricDef{"client.latency_p90_ms", "ms"},
		metricDef{"client.overshoot_p50_ms", "ms"},
		metricDef{"client.overshoot_p90_ms", "ms"},
		metricDef{"client.tail_percentile", "%"},
		metricDef{"client.latency_tail_ms", "ms"},
		metricDef{"client.overshoot_tail_ms", "ms"},
		metricDef{"client.sched_lag_p90_ms", "ms"},
		metricDef{"client.dropped_share", "ratio"},
		metricDef{"client.within_deadline_share", "ratio"},
		metricDef{"client.snr_p10_db", "dB"},
		metricDef{"client.snr_p50_db", "dB"},
		metricDef{"client.snr_mean_db", "dB"},
		metricDef{"client.final_share", "ratio"},
		metricDef{"proc.construct_s", "s"},
		metricDef{"proc.alloc_mb_per_op", "MB"},
		metricDef{"proc.gc_cycles", "count"},
		metricDef{"proc.gc_cpu_share", "ratio"},
		metricDef{"proc.peak_rss_mb", "MB"},
		metricDef{"trace.unattributed_share", "ratio"},
		metricDef{"trace.replay_drift_share", "ratio"},
		metricDef{"trace.overhead_share", "ratio"},
	)
}
