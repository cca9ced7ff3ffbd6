"""The metric catalogue: every metric the benchmark reports.

``BENCHMARK.json`` lists the same names, units and directions; the
self-tests check the two agree.  Each entry names the layer it measures
and, for per-layer metrics, the end-to-end metric it should move and
on which workload (see README.md for the reasoning).
"""

WORKLOADS = ("pipeline_batch", "serve_open", "stream_ticks")

#: name -> (unit, better, bound, meaning)
END_TO_END = {
    "setup_s": (
        "s", "lower", 0.25,
        "median over several cold set-ups of: import of repro, "
        "index/model/server build and warm-up"),
    "peak_rss_mb": (
        "MB", "lower", 0.1,
        "peak resident memory of the benchmark process after the "
        "measured phase"),
    "ok_share": (
        "share", "higher", 0.01,
        "1 - failed_share: operations that succeeded over those "
        "attempted (serve_open: at the nominal rate)"),
    "latency_p50_ms": (
        "ms", "lower", 0.25,
        "median latency of the workload's unit of work: a pipeline "
        "run, a served request from its due time at the nominal "
        "rate, a stream tick"),
    "latency_tail_ms": (
        "ms", "lower", 0.25,
        "the fixed tail percentile of the same latencies (p75 of "
        "pipeline runs, p95 of requests, p90 of ticks)"),
    "throughput_per_s": (
        "1/s", "higher", 0.25,
        "work per second: trips through the pipeline, requests served "
        "per second of dispatcher busy time at the nominal rate, "
        "stream events per second of tick time"),
}

#: name -> (unit, better, layer, moves)
PER_LAYER = {
    "core.run_overhead_ms": (
        "ms", "lower", "core",
        "latency_p50_ms on stream_ticks (large share) and "
        "pipeline_batch (small share)"),
    "core.stage_queue_wait_ms": (
        "ms", "lower", "core", "latency_p50_ms on pipeline_batch"),
    "core.stages_executed_per_tick": (
        "count", "lower", "core",
        "latency_p50_ms and throughput_per_s on stream_ticks"),
    "core.stages_replayed_per_tick": (
        "count", "higher", "core",
        "latency_p50_ms and throughput_per_s on stream_ticks"),
    "core.replay_share": (
        "share", "higher", "core",
        "latency_p50_ms and throughput_per_s on stream_ticks"),
    "governance.fusion.match_s": (
        "s", "lower", "governance.fusion",
        "latency_p50_ms on pipeline_batch"),
    "governance.fusion.points_per_s": (
        "1/s", "higher", "governance.fusion",
        "latency_p50_ms on pipeline_batch"),
    "governance.fusion.match_ms_per_batch": (
        "ms", "lower", "governance.fusion",
        "latency_p50_ms on serve_open and stream_ticks"),
    "governance.fusion.distance_cache_hit_ratio": (
        "share", "higher", "governance.fusion",
        "latency_p50_ms on serve_open"),
    "governance.uncertainty.fit_edge_s": (
        "s", "lower", "governance.uncertainty",
        "latency_p50_ms on pipeline_batch"),
    "governance.uncertainty.fit_path_s": (
        "s", "lower", "governance.uncertainty",
        "latency_p50_ms on pipeline_batch"),
    "governance.uncertainty.refit_ms_per_tick": (
        "ms", "lower", "governance.uncertainty",
        "latency_p50_ms on stream_ticks"),
    "governance.imputation.push_ms_per_tick": (
        "ms", "lower", "governance.imputation",
        "latency_p50_ms on stream_ticks"),
    "analytics.robustness.drift_ms_per_tick": (
        "ms", "lower", "analytics.robustness",
        "latency_tail_ms on stream_ticks"),
    "analytics.robustness.refits": (
        "count", "lower", "analytics.robustness",
        "latency_tail_ms on stream_ticks"),
    "decision.route_s": (
        "s", "lower", "decision", "latency_p50_ms on pipeline_batch"),
    "decision.reduce_s": (
        "s", "lower", "decision", "latency_p50_ms on pipeline_batch"),
    "decision.skyline_s": (
        "s", "lower", "decision", "latency_p50_ms on pipeline_batch"),
    "decision.route_ms_per_batch": (
        "ms", "lower", "decision",
        "latency_p50_ms on serve_open and stream_ticks"),
    "decision.memo_hit_ratio": (
        "share", "higher", "decision", "latency_p50_ms on serve_open"),
    "datatypes.distances_ms_per_batch": (
        "ms", "lower", "datatypes", "latency_p50_ms on serve_open"),
    "datatypes.index_build_s": (
        "s", "lower", "datatypes", "setup_s on every workload"),
    "serve.queue_wait_ms_p50": (
        "ms", "lower", "serve", "latency_tail_ms on serve_open"),
    "serve.queue_wait_ms_tail": (
        "ms", "lower", "serve", "latency_tail_ms on serve_open"),
    "serve.service_ms_p50": (
        "ms", "lower", "serve", "latency_p50_ms on serve_open"),
    "serve.batch_size_mean": (
        "count", "higher", "serve", "throughput_per_s on serve_open"),
    "serve.dispatch_busy_share": (
        "share", "lower", "serve", "throughput_per_s on serve_open"),
    "serve.shed_share": (
        "share", "lower", "serve", "throughput_per_s on serve_open"),
    "serve.goodput_rps": (
        "1/s", "higher", "serve",
        "nothing bounded: requests ok within 250 ms per second at the "
        "overload rate on serve_open"),
    "loadgen.lag_ms_tail": (
        "ms", "lower", "loadgen",
        "nothing: a validity check on the open-loop generator"),
    "observability.trace_overhead_share": (
        "share", "lower", "observability",
        "setup_s and the headline latency of every workload"),
    "observability.profile_overhead_share": (
        "share", "lower", "observability",
        "nothing end to end: run(profile=True) against a plain run "
        "on pipeline_batch"),
    "setup.import_s": (
        "s", "lower", "setup", "setup_s on every workload"),
    "failed_share": (
        "share", "lower", "run",
        "ok_share on every workload (its complement)"),
}
