"""Smoke test of the benchmark itself (tiny sizes, about a minute).

    python3 perfbench/smoke.py

For every workload, with ``--trace 0`` and ``--trace 1``, checks that
the run exits 0, reports correct answers and no failures, and emits
exactly the metrics ``BENCHMARK.json`` names, each with its unit and a
finite value; that no benchmark process (service, mp worker, resource
tracker) outlives its run and no run directory is left behind; and that
in a directory holding only ``BENCHMARK.json`` and this directory the
benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

RUNS_DIR = os.path.join(HERE, "_runs")


def _bench_processes() -> list[str]:
    """Other live processes running this benchmark's scripts."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().decode(errors="replace").split("\0")
        except OSError:
            continue
        if any(a.endswith(("perfbench/run.py", "perfbench/server.py"))
               for a in argv):
            found.append(f"{entry}: {' '.join(argv).strip()}")
    return found


def _leftover_rundirs(before: set) -> list[str]:
    if not os.path.isdir(RUNS_DIR):
        return []
    return sorted(set(os.listdir(RUNS_DIR)) - before)


def check_benchmark_json() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from metrics.py")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    return problems


def check_run(workload: str, trace: int) -> list[str]:
    before = set(os.listdir(RUNS_DIR)) if os.path.isdir(RUNS_DIR) else set()
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    tag = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr[-1500:]}"]
    problems = []
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{tag}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    expected = PER_LAYER if trace else END_TO_END
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"{tag}: metrics missing "
                        f"{sorted(set(expected) - set(got))}, extra "
                        f"{sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{tag}: {name} unit {m.get('unit')!r} "
                            f"!= {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"{tag}: {name} value {m.get('value')!r}")
    if not trace:
        for name in expected:
            if name in got and got[name]["value"] == 0:
                problems.append(f"{tag}: end-to-end {name} is 0")
    left = _bench_processes()
    if left:
        problems.append(f"{tag}: processes left running: {left}")
    dirs = _leftover_rundirs(before)
    if dirs:
        problems.append(f"{tag}: run directories left behind: {dirs}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program the benchmark must fail, printing no result."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=RUNS_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_runs", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cold_oneshot",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: benchmark did not fail without the program"]
    return []


def main() -> int:
    problems = check_benchmark_json()
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace)
            print(f"{workload:<16} trace={trace}  "
                  f"{'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    problems += check_bare_directory()
    for p in problems:
        print("  " + p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
