"""Steadiness check: N seeds per workload, spread of every end-to-end metric.

    python3 perfbench/steady.py --seeds 10 [--workloads a,b] [--seconds 16]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints for each end-to-end metric the median and the quartile spread
(IQR / median, as ``statistics.quantiles(values, n=4)`` gives it) of
both the calibrated values the benchmark reports and the raw values
before host-speed calibration, next to the metric's bound from
``BENCHMARK.json``.  ``--json PATH`` also writes every run's numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import iqr_over_median  # noqa: E402
from metrics import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced benchmark run → (info line, result line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--json", default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {}
    worst = 0.0
    for wl in args.workloads.split(","):
        runs = []
        for k in range(args.seeds):
            info, result = run_once(wl, args.seed_base + k, seconds)
            if not result["correct"] or result["failed"]:
                print(f"{wl} seed {args.seed_base + k}: INCORRECT "
                      f"{info.get('errors')}")
            runs.append({"info": info, "result": result})
        record[wl] = runs
        print(f"\n{wl}  ({args.seeds} seeds, {seconds:g} s each)  "
              f"speed factors "
              + " ".join(f"{r['info']['speed_factor']:.3f}" for r in runs))
        print(f"  {'metric':<18} {'median':>11} {'iqr/med':>8} "
              f"{'raw median':>11} {'raw iqr/med':>11} {'bound':>6}")
        for name, bound in bounds.items():
            cal = [r["result"]["metrics"][name]["value"] for r in runs]
            raw = [r["info"]["raw"][name] for r in runs]
            spread = iqr_over_median(cal)
            if name != "setup_s":
                worst = max(worst, spread / bound)
            flag = "" if spread <= bound / 3 else (
                "  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {name:<18} {statistics.median(cal):>11.4g} "
                  f"{spread:>8.3f} {statistics.median(raw):>11.4g} "
                  f"{iqr_over_median(raw):>11.3f} {bound:>6.2f}{flag}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.2f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
