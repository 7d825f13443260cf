package main

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; a test keeps
// the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// moves names the end-to-end metric and workload a per-layer metric
	// should move.
	moves string
}

// endToEnd metrics come from untraced runs only.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wf_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "heap_after_gc_mb", unit: "MB", better: "lower", bound: 0.25},
}

// perLayer metrics come from the traced run. A layer the workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{name: "frontends.compile_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-churn"},
	{name: "analysis.check_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-churn"},
	{name: "core.optimize_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-churn"},
	{name: "ir.plan_key_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-churn (paid on every hit)"},
	{name: "core.partition_ms", unit: "ms", better: "lower", moves: "latency_p90_ms on serve-churn (misses form the tail)"},
	{name: "core.partition_candidates", unit: "count", better: "lower", moves: "latency_p90_ms on serve-churn"},
	{name: "core.plancache_hit_ratio", unit: "ratio", better: "higher", moves: "wf_per_s, latency_p50_ms on serve-churn"},
	{name: "core.calibration_bumps", unit: "count", better: "lower", moves: "wf_per_s, latency_p50_ms on serve-churn"},
	{name: "core.run_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on q17-batch and pagerank-loop"},
	{name: "core.while_iteration_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on pagerank-loop"},
	{name: "sched.jobs_per_wf", unit: "count", better: "lower", moves: "latency_p50_ms on pagerank-loop"},
	{name: "sched.queue_wait_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on pagerank-loop"},
	{name: "engines.pull_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on q17-batch and pagerank-loop"},
	{name: "engines.process_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on q17-batch and pagerank-loop"},
	{name: "engines.push_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on pagerank-loop"},
	{name: "exec.run_dag_ms", unit: "ms", better: "lower", moves: "wf_per_s on q17-batch"},
	{name: "relation.tsv_decode_mb_s", unit: "MB/s", better: "higher", moves: "wf_per_s on q17-batch and pagerank-loop"},
	{name: "relation.tsv_encode_mb_s", unit: "MB/s", better: "higher", moves: "wf_per_s on pagerank-loop"},
	{name: "dfs.pull_bytes_per_wf", unit: "B", better: "lower", moves: "latency_p50_ms on pagerank-loop"},
	{name: "dfs.push_bytes_per_wf", unit: "B", better: "lower", moves: "latency_p50_ms on pagerank-loop"},
	{name: "dfs.files_end", unit: "count", better: "lower", moves: "heap_after_gc_mb on serve-churn"},
	{name: "serve.http_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-churn"},
	{name: "serve.queue_wait_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-churn"},
	{name: "serve.exec_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-churn"},
	{name: "serve.stage_ms", unit: "ms", better: "lower", moves: "wf_per_s on serve-churn"},
	{name: "serve.fetch_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-churn"},
	{name: "gc.alloc_mb_per_wf", unit: "MB", better: "lower", moves: "wf_per_s on all three workloads"},
	{name: "gc.cpu_frac", unit: "ratio", better: "lower", moves: "wf_per_s on all three workloads"},
	{name: "obs.trace_overhead_frac", unit: "ratio", better: "lower", moves: "none; it guards the traced numbers"},
}
