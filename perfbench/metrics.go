package main

// layerDefs lists every per-layer metric and its unit. A traced run of
// any workload reports all of them; a layer the workload does not
// exercise reads zero (the topology and sim rows on decide, the
// placement rows on batch and open).
var layerDefs = []struct{ name, unit string }{
	{"sched.calls", "count"},
	{"sched.map_busy_s", "s"},
	{"sched.reduce_busy_s", "s"},
	{"sched.busy_share", "ratio"},
	{"sched.assign_ratio", "ratio"},
	{"sched.mean_jct_sim_s", "s"},
	{"sched.node_local_pct", "%"},
	{"topology.replay_s", "s"},
	{"topology.flows", "count"},
	{"topology.full_recomputes", "count"},
	{"topology.inc_recomputes", "count"},
	{"topology.inc_ratio", "ratio"},
	{"topology.flow_rate_events", "count"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.replay_events", "count"},
	{"engine.self_s", "s"},
	{"engine.preemptions", "count"},
	{"engine.rejected", "count"},
	{"engine.steady_p99_jct_sim_s", "s"},
	{"placement.map_busy_s", "s"},
	{"placement.reduce_busy_s", "s"},
	{"placement.delta_busy_s", "s"},
	{"placement.delta_p50_us", "us"},
	{"placement.delta_p99_us", "us"},
	{"placement.assign_ratio", "ratio"},
	{"placement.epoch", "count"},
	{"placement.journal_bytes", "bytes"},
	{"obs.events", "count"},
	{"obs.flow_events", "count"},
	{"obs.decision_events", "count"},
	{"obs.overhead_pct", "%"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
}

// layerMetrics returns every per-layer metric at zero.
func layerMetrics() map[string]metric {
	m := make(map[string]metric, len(layerDefs))
	for _, d := range layerDefs {
		m[d.name] = metric{0, d.unit}
	}
	return m
}
