package main

// spec names one reported metric. BENCHMARK.json at the repository root
// lists the same names and units (pinned by TestSpecMatchesBenchmarkJSON).
type spec struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run reports, on every
// workload. Each workload gives the generic name its own user-visible
// meaning (README.md has the table):
//
//	latency_p50_ms: in-process Predict (train), /v1/predict at the light
//	open-loop rate (serve), stream append at the fixed open-loop rate
//	(stream), the last two timed from their scheduled send time;
//	throughput_per_cpu_s: series through Train+PredictBatch (train),
//	closed-loop /v1/predict requests (serve), closed-loop samples
//	ingested (stream), per CPU-second of the process doing the work;
//	batch_throughput_per_cpu_s: in-process PredictBatch series (train),
//	/v1/predict:batch series (serve), bulk-chunk samples ingested
//	(stream), per CPU-second likewise.
//
// Throughput is counted per CPU-second, not per wall-second, because the
// benchmark shares its machine: CPU time the hypervisor gives to other
// guests (steal) stretches wall time by a varying 10 to 40 percent, but
// is not charged to the process.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"throughput_per_cpu_s", "1/cpu-s", "higher"},
	{"batch_throughput_per_cpu_s", "1/cpu-s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics every traced run reports, on every workload.
// A layer the workload does not exercise reports 0.
var perLayer = []spec{
	// train: TrainReport summed over the dataset mix.
	{"core.param_search_s", "s", "lower"},
	{"core.search_share", "frac", "lower"},
	{"core.candidates_s", "s", "lower"},
	{"sax.step1_s", "s", "lower"},
	{"core.step2_grammar_cluster_s", "s", "lower"},
	{"core.step3_select_s", "s", "lower"},
	{"core.fit_s", "s", "lower"},
	{"core.search_evals", "count", "lower"},
	{"core.search_cache_hit_frac", "frac", "higher"},
	{"core.candidates", "count", "lower"},
	{"cluster.kept_frac", "frac", "higher"},
	{"core.prune_dropped_frac", "frac", "lower"},
	{"features.cfs_expansions", "count", "lower"},
	{"features.cfs_selected", "count", "lower"},
	{"core.test_accuracy", "frac", "higher"},
	{"parallel.search_splits_idle_frac", "frac", "lower"},
	{"parallel.candidates_idle_frac", "frac", "lower"},
	{"parallel.transform_idle_frac", "frac", "lower"},
	{"go.train_alloc_mb", "MB", "lower"},
	{"go.train_gc_cycles", "count", "lower"},
	// train: kernel replays on the workload's own data, with work counts.
	{"dist.best_ns_per_window", "ns", "lower"},
	{"dist.best_windows", "count", "lower"},
	{"dist.query_ns_per_window", "ns", "lower"},
	{"dist.query_windows", "count", "lower"},
	{"sax.discretize_ns_per_window", "ns", "lower"},
	{"sax.windows", "count", "lower"},
	{"sequitur.infer_ns_per_token", "ns", "lower"},
	{"sequitur.tokens", "count", "lower"},
	{"svm.predict_ns", "ns", "lower"},
	{"svm.predict_calls", "count", "lower"},
	// serve: /debug/obs deltas across the measured phases.
	{"serve.batch_size_mean", "count", "higher"},
	{"serve.handler_mean_ms", "ms", "lower"},
	{"serve.flush_busy_frac", "frac", "lower"},
	{"serve.flush_us_per_item", "us", "lower"},
	{"serve.batch_handler_mean_ms", "ms", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.expired", "count", "lower"},
	// serve: measured by the benchmark.
	{"client.short_p50_ms", "ms", "lower"},
	{"client.long_p50_ms", "ms", "lower"},
	{"core.predict_us_p50", "us", "lower"},
	{"core.predict_batch_us_per_series", "us", "lower"},
	// serve and stream.
	{"http.overhead_mean_ms", "ms", "lower"},
	{"bench.gen_lag_ms_p99", "ms", "lower"},
	// stream.
	{"stream.append_ns_per_sample", "ns", "lower"},
	{"stream.replay_samples", "count", "lower"},
	{"serve.stream_handler_mean_ms", "ms", "lower"},
	{"serve.stream_bytes_per_stream", "bytes", "lower"},
	{"serve.stream_events", "count", "lower"},
	// every workload: the p99 of latency_p50_ms's samples. On a shared
	// machine the served p99s swing by more than a tenth between runs, so
	// the p99 is reported here, ungated.
	{"bench.latency_p99_ms", "ms", "lower"},
	// every workload: traced main metric against the untraced one.
	{"bench.trace_overhead_frac", "frac", "lower"},
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		m[s.name] = s.unit
	}
	return m
}()

// put records a declared metric with its declared unit.
func (r *result) put(name string, v float64) {
	u, ok := units[name]
	if !ok {
		r.problemf("metric %s is not declared", name)
		return
	}
	r.metrics[name] = metric{Value: v, Unit: u}
}

// startLayers seeds a traced result with every per-layer metric at 0.
func (r *result) startLayers() {
	for _, s := range perLayer {
		r.put(s.name, 0)
	}
}

// checkComplete records a problem for every metric of want the run did
// not report, and for any it reported that is not in want.
func (r *result) checkComplete(want []spec) {
	known := map[string]bool{}
	for _, s := range want {
		known[s.name] = true
		if _, ok := r.metrics[s.name]; !ok {
			r.problemf("metric %s was not measured", s.name)
		}
	}
	for n := range r.metrics {
		if !known[n] {
			r.problemf("metric %s is not declared", n)
		}
	}
}
