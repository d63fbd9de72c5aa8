"""Names of the workloads and names and units of every metric.

``BENCHMARK.json`` lists the same names; ``smoke.py`` checks that the
two agree and that every run emits each metric with its unit.
"""

#: Workload name → module implementing it.
WORKLOADS = {
    "cold_oneshot": "wl_cold",
    "repeat_oneshot": "wl_repeat",
    "served_tcp": "wl_served",
    "distributed_mp": "wl_mp",
}

#: End-to-end metrics (``--trace 0``), reported by every workload.
#: Timings are calibrated to the reference host speed (see ``calib.py``).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``).  Layers are named after the
#: modules they time.  A workload whose path does not reach a layer
#: reports 0 for it (listed under ``not_on_path`` in the info line).
PER_LAYER = {
    "toeplitz.fingerprint_ms": "ms",
    "engine.plan.plan_ms": "ms",
    "engine.plan.probe_ms": "ms",
    "engine.plan.block_size": "count",
    "engine.execute.self_ms": "ms",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.evictions": "count",
    "engine.cache_store.hit_ratio": "ratio",
    "engine.cache_store.load_ms": "ms",
    "engine.cache_store.put_ms": "ms",
    "engine.cache_store.bytes_written": "bytes",
    "engine.cache_store.quarantined": "count",
    "core.factor_ms": "ms",
    "core.factor.generator_ms": "ms",
    "core.factor.blocking_ms": "ms",
    "core.factor.application_ms": "ms",
    "core.factor.panel_ms": "ms",
    "core.factor.unattributed_ms": "ms",
    "core.factor.py_calls": "count",
    "core.factor.model_flops": "flop",
    "core.factor_gflops": "GFLOP/s",
    "core.solve_k1_ms": "ms",
    "core.solve_panel_ms": "ms",
    "serve.dispatcher.queue_wait_p50_ms": "ms",
    "serve.dispatcher.queue_wait_p90_ms": "ms",
    "serve.dispatcher.batch_k_mean": "count",
    "serve.dispatcher.exec_ms": "ms",
    "serve.dispatcher.overloads": "count",
    "serve.dispatcher.deadline_expirations": "count",
    "serve.wire.client_encode_ms": "ms",
    "serve.wire.client_decode_ms": "ms",
    "serve.wire.server_overhead_ms": "ms",
    "serve.wire.bytes_per_request": "bytes",
    "parallel.mp.factor_ms": "ms",
    "parallel.mp.speedup_vs_serial": "ratio",
    "parallel.mp.broadcast_words": "count",
    "parallel.mp.shift_words": "count",
    "host.speed_factor": "ratio",
    "host.calib_drift": "ratio",
    "gen.lag_p99_ms": "ms",
    "e2e.latency_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.span_coverage_frac": "ratio",
    "ref.scipy_solve_toeplitz_ms": "ms",
    "ref.scipy_cholesky_ms": "ms",
}
