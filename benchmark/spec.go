package main

// metricSpec names one reported metric and its unit. BENCHMARK.json lists
// the same names; spec_test.go keeps the two in step.
type metricSpec struct {
	name, unit string
	// bound is the share by which an end-to-end metric may worsen before
	// it counts as a regression (unset for per-layer metrics).
	bound float64
	// exact marks a metric that depends only on what the solvers
	// answered, so two runs of the same code must read the same.
	exact bool
}

// endToEndMetrics are what a caller of the service sees; every untraced
// run reports all of them. The timing bounds are the contract's maximum:
// even on the reference clock (calib.go) the fleet workload's timings
// spread 8-15 % between runs in the sizing sandbox, and a bound has to
// stay above three times the spread to mean anything.
var endToEndMetrics = []metricSpec{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", bound: 0.25},
	{name: "latency_p95_ms", unit: "ms", bound: 0.25},
	{name: "throughput_rps", unit: "1/s", bound: 0.25},
	{name: "ok_share", unit: "ratio", bound: 0.001},
	{name: "cpu_ms_per_req", unit: "ms", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.15},
	{name: "sim_inference_ips", unit: "1/s", bound: 0.01, exact: true},
	{name: "peak_param_mb", unit: "MB", bound: 0.01, exact: true},
}

// solverBackends are the portfolio members the traced runs break out.
var solverBackends = []string{"heur", "compiler", "exact", "rl"}

// perLayerMetrics are reported by a traced run (-trace 1) only. The first
// block is derived from the traced window of the workload being run; a
// metric that does not apply to that workload reads 0 (cluster.* outside
// fleet_forward, serve.taps_on_* and rt.* outside zoo_hit, a backend that
// was not raced). The probe block is measured in-process by
// benchmark/probes and reads the same whatever the workload.
var perLayerMetrics = func() []metricSpec {
	m := []metricSpec{
		// serve: the request's serial path, from the server's own trace.
		{name: "serve.total_ms_p50", unit: "ms"},
		{name: "serve.pre_solve_ms_p50", unit: "ms"},
		{name: "serve.queue_wait_ms_p50", unit: "ms"},
		{name: "serve.solve_ms_p50", unit: "ms"},
		{name: "serve.queue_wait_ms_p95", unit: "ms"},
		{name: "serve.wire_ms_p50", unit: "ms"},
		{name: "serve.byname_ms_p50", unit: "ms"},
		{name: "serve.inline_ms_p50", unit: "ms"},
		{name: "serve.rejected_share", unit: "ratio"},
		// serve taps on/off (zoo_hit only).
		{name: "serve.taps_on_cpu_ms_per_req", unit: "ms"},
		{name: "serve.taps_on_latency_p50_ms", unit: "ms"},
		{name: "rt.releases_per_s", unit: "1/s"},
		{name: "rt.miss_share", unit: "ratio"},
		// solver: cache and portfolio race.
		{name: "solver.cache_hit_share", unit: "ratio"},
		{name: "solver.cache_evictions_per_kreq", unit: "count"},
		{name: "solver.race_overhead_ms_p50", unit: "ms"},
		{name: "solver.truncated_share", unit: "ratio"},
	}
	for _, b := range solverBackends {
		m = append(m,
			metricSpec{name: "solver.backend." + b + ".elapsed_ms_p50", unit: "ms"},
			metricSpec{name: "solver.backend." + b + ".win_share", unit: "ratio"})
	}
	m = append(m,
		// cluster (fleet_forward only).
		metricSpec{name: "cluster.forwarded_share", unit: "ratio"},
		metricSpec{name: "cluster.hop_ms_p50", unit: "ms"},
		metricSpec{name: "cluster.owner_total_ms_p50", unit: "ms"},
		metricSpec{name: "cluster.fallback_local", unit: "count"},
		// harness: the benchmark's own cost.
		metricSpec{name: "loadgen.cpu_ms_per_req", unit: "ms"},
		metricSpec{name: "loadgen.requests", unit: "count"},
		metricSpec{name: "trace.overhead_pct", unit: "%"},
		metricSpec{name: "machine.slowdown_p50", unit: "ratio"},
		metricSpec{name: "machine.slowdown_max", unit: "ratio"},
	)
	return append(m, probeMetrics...)
}()

// probeMetrics are measured by the benchmark/probes binary; it must emit
// exactly these names.
var probeMetrics = []metricSpec{
	{name: "solver.cache_hit_us", unit: "us"},
	{name: "solver.portfolio_us", unit: "us"},
	{name: "solver.batch_graphs_per_s", unit: "1/s"},
	{name: "models.load_us", unit: "us"},
	{name: "graph.read_json_us_per_kb", unit: "us"},
	{name: "graph.write_json_us_per_kb", unit: "us"},
	{name: "graph.read_json_allocs_per_op", unit: "count"},
	{name: "synth.sample_us", unit: "us"},
	{name: "exact.synth30_ms_p50", unit: "ms"},
	{name: "exact.synth30_ms_p95", unit: "ms"},
	{name: "exact.zoo_ms", unit: "ms"},
	{name: "exact.allocs_per_op", unit: "count"},
	{name: "heur.schedule_us", unit: "us"},
	{name: "heur.allocs_per_op", unit: "count"},
	{name: "compiler.schedule_us", unit: "us"},
	{name: "compiler.full_ms", unit: "ms"},
	{name: "ilp.grade_ms", unit: "ms"},
	{name: "sched.evaluate_us", unit: "us"},
	{name: "sched.validate_us", unit: "us"},
	{name: "sched.post_process_us", unit: "us"},
	{name: "sched.seq_to_schedule_dp_us", unit: "us"},
	{name: "embed.graph_us", unit: "us"},
	{name: "ptrnet.infer_ms", unit: "ms"},
	{name: "ptrnet.infer_beam8_ms", unit: "ms"},
	{name: "ptrnet.infer_allocs_per_op", unit: "count"},
	{name: "rl.schedule_ms", unit: "ms"},
	{name: "rl.schedule_sampled16_ms", unit: "ms"},
	{name: "rl.train_iter_ms", unit: "ms"},
	{name: "rl.train_s", unit: "s"},
	{name: "speculate.observe_ns", unit: "ns"},
	{name: "speculate.mutations_us", unit: "us"},
	{name: "online.buffer_add_ns", unit: "ns"},
	{name: "metrics.observe_ns", unit: "ns"},
	{name: "metrics.write_text_us", unit: "us"},
	{name: "tpu.simulate_us", unit: "us"},
	{name: "pipeline.run_us", unit: "us"},
	{name: "deploy.partition_us", unit: "us"},
	{name: "paper.rl_ms_geomean", unit: "ms"},
	{name: "paper.exact_ms_geomean", unit: "ms"},
	{name: "paper.compiler_full_ms_geomean", unit: "ms"},
	{name: "paper.rl_vs_exact_time_ratio", unit: "ratio"},
	{name: "paper.rl_vs_compiler_time_ratio", unit: "ratio"},
	{name: "paper.rl_gap_to_optimal_pct", unit: "%"},
	{name: "paper.sim_speedup_vs_compiler", unit: "ratio"},
}
