package main

// metric is one printed metric. Its bound, for end-to-end metrics, lives
// in BENCHMARK.json only.
type metric struct {
	name, unit, better string
	// exact marks per-layer counters that are a pure function of the
	// workload's inputs: they must repeat bit for bit across repetitions,
	// traced or not, and across runs of the same seed.
	exact bool
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer are the metrics of single layers, printed by every traced run
// of every workload. A metric whose layer a workload does not exercise
// reads 0 there.
var perLayer = func() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{name: l + ".cpu_share", unit: "share", better: "lower"})
	}
	return append(ms,
		metric{name: "sim.events", unit: "count", better: "lower", exact: true},
		metric{name: "sim.windows", unit: "count", better: "lower", exact: true},
		metric{name: "sim.committed_parallel_frac", unit: "share", better: "higher", exact: true},
		metric{name: "node.model_steps", unit: "count", better: "lower", exact: true},
		metric{name: "sched.peak_queue", unit: "count", better: "lower", exact: true},
		metric{name: "sched.requeues", unit: "count", better: "lower", exact: true},
		metric{name: "examon.published", unit: "count", better: "lower", exact: true},
		metric{name: "examon.series", unit: "count", better: "lower", exact: true},
		metric{name: "powerplane.throttled_nodes", unit: "count", better: "lower", exact: true},
		metric{name: "fault.crashes", unit: "count", better: "lower", exact: true},
		metric{name: "fault.trips", unit: "count", better: "lower", exact: true},
		metric{name: "fault.repairs", unit: "count", better: "lower", exact: true},
		metric{name: "fleet.federation_series", unit: "count", better: "lower", exact: true},
		metric{name: "sim.events_per_s", unit: "1/s", better: "higher"},
		metric{name: "node.steps_per_cpu_s", unit: "1/s", better: "higher"},
		metric{name: "examon.preload_samples_per_s", unit: "1/s", better: "higher"},
		metric{name: "examon.ingest_samples_per_s", unit: "1/s", better: "higher"},
		metric{name: "examon.q_node_agg_per_s", unit: "1/s", better: "higher"},
		metric{name: "examon.q_node_raw_per_s", unit: "1/s", better: "higher"},
		metric{name: "examon.q_cluster_agg_per_s", unit: "1/s", better: "higher"},
		metric{name: "fleet.max_active", unit: "count", better: "higher"},
		metric{name: "runtime.alloc_mb", unit: "MB", better: "lower"},
		metric{name: "runtime.mallocs", unit: "count", better: "lower"},
		metric{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		metric{name: "bench.trace_overhead_frac", unit: "frac", better: "lower"},
	)
}()

// value is one printed metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as the last line of its output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}
