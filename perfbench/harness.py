"""Workload plumbing: run context, closed loops, the traced pass.

Importing this module does not import ``repro``; every function that
needs the program imports it on call, after the pre-run calibration.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    rundir: str
    #: Small sizes, for the smoke test.
    tiny: bool = False
    #: Host speed factor from the pre-run calibration (open-loop rates).
    speed_factor: float = 1.0


@dataclass
class Outcome:
    """What one workload run measured (times in raw seconds)."""

    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    #: Correct answers per busy second (raw host speed).
    throughput: float = 0.0
    #: Peak RSS (MB) of the process doing the work, if not this one.
    peak_rss_mb: float | None = None
    #: Per-layer metrics (traced runs only).
    layers: dict = field(default_factory=dict)
    #: Extra facts for the info line (mix shares, sample counts, …).
    info: dict = field(default_factory=dict)
    #: Problems that make the whole run incorrect.
    errors: list = field(default_factory=list)


def ms(seconds) -> float:
    return float(seconds) * 1e3


def median_ms(values) -> float:
    return ms(statistics.median(values)) if values else 0.0


def windowed(values, stat, *, min_size: int = 100, max_windows: int = 16):
    """Median of ``stat`` over consecutive windows of ``values``.

    Runs are cut into up to ``max_windows`` windows of at least
    ``min_size`` samples, in time order; a host stall that spoils one
    window moves the median of the windows far less than it moves the
    statistic of the pooled samples.
    """
    k = max(1, min(max_windows, len(values) // min_size))
    edges = [round(j * len(values) / k) for j in range(k + 1)]
    return statistics.median(stat(values[a:b])
                             for a, b in zip(edges, edges[1:]))


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
def closed_loop(next_input, call, check, seconds: float, out: Outcome,
                *, min_calls: int = 1, root_spans: list | None = None):
    """One caller: ``call`` the next input until ``seconds`` have passed.

    Only ``call`` is timed.  ``next_input`` and ``check`` run outside the
    timed region; ``check(inp, result)`` returns an error string or
    ``None``.  With ``root_spans`` given, each call runs inside a
    ``bench.call`` span whose closed tree is appended to the list.
    """
    good = 0
    i = 0
    t_end = time.perf_counter() + seconds
    if root_spans is not None:
        import repro.obs as obs
    while i < min_calls or time.perf_counter() < t_end:
        inp = next_input(i)
        if root_spans is None:
            t0 = time.perf_counter()
            res = call(inp)
            dt = time.perf_counter() - t0
        else:
            with obs.span("bench.call") as root:
                t0 = time.perf_counter()
                res = call(inp)
                dt = time.perf_counter() - t0
            root_spans.append(root)
        out.latencies.append(dt)
        out.attempted += 1
        err = check(inp, res)
        if err is None:
            good += 1
        else:
            out.failed += 1
            if len(out.errors) < 5:
                out.errors.append(err)
        i += 1
    out.throughput = (windowed(out.latencies, lambda w: len(w) / sum(w))
                      * good / out.attempted)
    return out


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
@contextlib.contextmanager
def traced():
    """Turn the program's span tracing on for the enclosed pass only."""
    import repro.obs as obs
    obs.enable()
    try:
        yield
    finally:
        obs.disable()


class CallTimer:
    """Wraps one method of a class to time every call (traced pass only)."""

    def __init__(self, cls, name: str, after=None):
        self.cls, self.name, self.after = cls, name, after
        self.seconds: list[float] = []
        self.extra = 0

    def __enter__(self):
        original = getattr(self.cls, self.name)
        self._original = original
        timer = self

        def wrapper(obj, *args, **kwargs):
            t0 = time.perf_counter()
            result = original(obj, *args, **kwargs)
            timer.seconds.append(time.perf_counter() - t0)
            if timer.after is not None:
                timer.extra += timer.after(obj, args, result)
            return result

        setattr(self.cls, self.name, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.cls, self.name, self._original)
        return False


def count_py_calls(fn) -> int:
    """Python-level function calls made by ``fn()`` (profiler hook)."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _self_seconds(sp) -> float:
    return sp.duration - sum(c.duration for c in sp.children)


def span_layers(roots: list) -> dict:
    """Per-layer metrics read from ``bench.call`` span trees.

    Medians per occurrence; a layer absent from every tree is left out
    (the caller reports it as not on the workload's path).
    """
    acc: dict[str, list] = defaultdict(list)
    for root in roots:
        if root.duration > 0:
            acc["coverage"].append(
                sum(c.duration for c in root.children) / root.duration)
        for sp in root.walk():
            name, attrs = sp.name, sp.attributes
            if name == "engine.plan":
                acc["plan"].append(sp.duration)
                if "block_size" in attrs:
                    acc["block_size"].append(attrs["block_size"])
            elif name == "plan.probe":
                acc["probe"].append(sp.duration)
            elif name == "engine.execute":
                acc["exec_self"].append(_self_seconds(sp))
            elif name == "solve" and attrs.get("nrhs") == 1:
                acc["solve_k1"].append(sp.duration)
            elif name == "cache.load" and attrs.get("hit"):
                acc["load"].append(sp.duration)
            elif name == "factor":
                gen = [c for c in sp.walk() if c.name == "schur.generator"]
                elim = [c for c in sp.walk() if c.name == "schur.eliminate"]
                if not elim:
                    continue                      # cache hit: no factor
                phases: dict[str, float] = defaultdict(float)
                for e in elim:
                    for k, v in e.phases.items():
                        phases[k] += v
                total = (sum(g.duration for g in gen)
                         + sum(e.duration for e in elim))
                acc["factor"].append(total)
                acc["generator"].append(sum(g.duration for g in gen))
                for k in ("blocking", "application", "panel"):
                    acc[k].append(phases.get(k, 0.0))
                acc["unattributed"].append(
                    total - sum(g.duration for g in gen)
                    - sum(phases.get(k, 0.0)
                          for k in ("blocking", "application", "panel")))
                if attrs.get("model_flops"):
                    acc["model_flops"].append(attrs["model_flops"])
    layers: dict[str, float] = {}
    names = {
        "plan": "engine.plan.plan_ms", "probe": "engine.plan.probe_ms",
        "exec_self": "engine.execute.self_ms",
        "solve_k1": "core.solve_k1_ms",
        "load": "engine.cache_store.load_ms",
        "factor": "core.factor_ms",
        "generator": "core.factor.generator_ms",
        "blocking": "core.factor.blocking_ms",
        "application": "core.factor.application_ms",
        "panel": "core.factor.panel_ms",
        "unattributed": "core.factor.unattributed_ms",
    }
    for key, metric in names.items():
        if acc[key]:
            layers[metric] = median_ms(acc[key])
    if acc["block_size"]:
        layers["engine.plan.block_size"] = float(
            statistics.median(acc["block_size"]))
    if acc["model_flops"]:
        flops = float(statistics.median(acc["model_flops"]))
        layers["core.factor.model_flops"] = flops
        layers["core.factor_gflops"] = (
            flops / statistics.median(acc["factor"]) / 1e9)
    if acc["coverage"]:
        layers["trace.span_coverage_frac"] = float(
            statistics.median(acc["coverage"]))
    return layers


def overhead_frac(untraced: list, traced_lat: list) -> float:
    """Traced p50 over untraced p50, minus one."""
    return (statistics.median(traced_lat) / statistics.median(untraced)
            - 1.0)


def fresh_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent, reproducible generator per (seed, purpose)."""
    return np.random.default_rng([seed, stream])


def factor_py_calls(op) -> float:
    """Python calls made by one uncached factor of ``op`` (tracing off)."""
    from repro import engine
    pl = engine.plan(op, cache="off")
    return float(count_py_calls(lambda: engine.factor(pl)))
