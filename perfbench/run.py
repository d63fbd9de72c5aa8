"""Repository benchmark: four caller workloads, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_oneshot --seed 1 \\
        --seconds 16 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(see ``metrics.py``).  The line before it, ``{"info": ...}``, records
the seed, the host speed factor, raw (uncalibrated) values and the
workload's mix.

Every timing is reported at the reference host speed: a fixed kernel
(``calib.py``), in as many concurrent copies as the workload keeps
processes busy, is timed before ``repro`` is imported and again after
every program thread and child process has stopped, and timings are
divided by ``mean(pre, post) / NOMINAL_SECONDS`` (rates multiplied).
All state lives in a per-run directory under ``perfbench/_runs`` that
is removed on exit.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported anywhere in this process or its
# children: one BLAS thread (steady timings on a small shared host, and
# no oversubscription by the service and the mp workers) and the
# program's tracing off unless the traced pass turns it on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_OBS"] = "0"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import common  # noqa: E402
import harness  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Set-ups per run: this process's own plus fresh processes, so that
#: once-per-process work (imports, host models) is in every sample.
SETUP_SAMPLES = 3

#: Reference lines: compiled Levinson and dense Cholesky at this order.
REF_N = 512


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes for the smoke test")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and exit (used internally)")
    ap.add_argument("--runs-dir", default=os.path.join(HERE, "_runs"),
                    help="parent of the per-run directory")
    return ap.parse_args(argv)


def _make_rundir(args) -> str:
    os.makedirs(args.runs_dir, exist_ok=True)
    rundir = tempfile.mkdtemp(
        prefix=f"{args.workload}-s{args.seed}-", dir=args.runs_dir)
    tmp = os.path.join(rundir, "tmp")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    os.environ["REPRO_CACHE_DIR"] = os.path.join(rundir, "store")
    os.environ["XDG_CACHE_HOME"] = os.path.join(rundir, "xdg")
    return rundir


def _import_program():
    sys.path.insert(0, SRC)
    import repro.obs
    repro.obs.disable()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_in_fresh_process(args, rundir) -> float:
    """One set-up in a child whose run directory lives inside ours."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--runs-dir", rundir]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:           # interrupted: let it clean up
            proc.terminate()
            try:
                proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {err[-2000:]}")
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


def _reference_lines() -> dict:
    import numpy as np
    from scipy.linalg import cholesky, solve_toeplitz
    col = 0.5 ** np.arange(REF_N)
    rhs = np.linspace(-1.0, 1.0, REF_N)
    dense = col[np.abs(np.subtract.outer(np.arange(REF_N),
                                         np.arange(REF_N)))]

    def med(fn, reps=21):
        fn()
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return harness.median_ms(times)

    return {
        "ref.scipy_solve_toeplitz_ms": med(lambda: solve_toeplitz(col, rhs)),
        "ref.scipy_cholesky_ms": med(lambda: cholesky(dense)),
    }


def _setup_only(args, rundir) -> int:
    wl = importlib.import_module(WORKLOADS[args.workload])
    ctx = harness.Context(seed=args.seed, seconds=0.0, trace=False,
                          rundir=rundir, tiny=args.tiny)
    t0 = time.perf_counter()
    _import_program()
    state = wl.setup(ctx)
    elapsed = time.perf_counter() - t0
    try:
        print(json.dumps({"setup_s": elapsed}))
    finally:
        wl.teardown(state)
    return 0


def _run(args, rundir) -> int:
    wl = importlib.import_module(WORKLOADS[args.workload])
    pre = calib.measure_parallel(wl.CALIBRATION_PROCESSES)
    ctx = harness.Context(seed=args.seed, seconds=args.seconds,
                          trace=bool(args.trace), rundir=rundir,
                          tiny=args.tiny,
                          speed_factor=pre / calib.NOMINAL_SECONDS)
    state = None
    try:
        t0 = time.perf_counter()
        _import_program()
        state = wl.setup(ctx)
        setups = [time.perf_counter() - t0]
        if not ctx.trace:
            setups += [_setup_in_fresh_process(args, rundir)
                       for _ in range(SETUP_SAMPLES - 1)]
        out = wl.run(state, ctx)
    finally:
        if state is not None:
            wl.teardown(state)
    problems = common.quiescence_problems()
    if problems:
        print("program not stopped before post-run calibration: "
              + "; ".join(problems), file=sys.stderr)
        return 1
    refs = _reference_lines() if ctx.trace else {}
    post = calib.measure_parallel(wl.CALIBRATION_PROCESSES)
    f = (pre + post) / 2.0 / calib.NOMINAL_SECONDS

    lat = out.latencies
    raw = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": harness.windowed(
            lat, lambda w: common.percentile(w, 50)) * 1e3,
        "latency_p90_ms": harness.windowed(
            lat, lambda w: common.percentile(w, 90)) * 1e3,
        "throughput_per_s": out.throughput,
        "peak_rss_mb": (out.peak_rss_mb if out.peak_rss_mb is not None
                        else _self_rss_mb()),
    }
    calibrated = {
        "setup_s": raw["setup_s"] / f,
        "latency_p50_ms": raw["latency_p50_ms"] / f,
        "latency_p90_ms": raw["latency_p90_ms"] / f,
        "throughput_per_s": raw["throughput_per_s"] * f,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    if ctx.trace:
        base = out.info.pop("untraced_latencies", lat)
        values = {name: 0.0 for name in PER_LAYER}
        values.update(out.layers)
        values.update(refs)
        values["host.speed_factor"] = f
        values["host.calib_drift"] = post / pre
        values["e2e.latency_p99_ms"] = common.percentile(base, 99) * 1e3 / f
        not_on_path = sorted(set(PER_LAYER) - set(out.layers) - set(refs)
                             - {"host.speed_factor", "host.calib_drift",
                                "e2e.latency_p99_ms"})
        units = PER_LAYER
    else:
        values, not_on_path, units = calibrated, [], END_TO_END
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "speed_factor": f, "calib_pre_s": pre, "calib_post_s": post,
        "nominal_s": calib.NOMINAL_SECONDS,
        "setup_samples_s": setups, "calls": len(lat),
        "calls_beyond_p90": sum(1 for x in lat
                                if x * 1e3 > raw["latency_p90_ms"]),
        "raw": raw, "errors": out.errors, "not_on_path": not_on_path,
        **out.info,
    }
    print(json.dumps({"info": info}))
    correct = out.failed == 0 and not out.errors and out.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    rundir = _make_rundir(args)
    try:
        if args.setup_only:
            return _setup_only(args, rundir)
        return _run(args, rundir)
    finally:
        # A second SIGTERM must not cut the clean-up short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        common.reap_children()
        shutil.rmtree(rundir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
