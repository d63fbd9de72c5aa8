"""Host-speed reference kernel.

The kernel uses no ``repro`` code: an interpreted Python loop plus a
single-threaded ``scipy.linalg.solve_toeplitz`` (compiled Levinson) at a
fixed order.  It is timed once before ``repro`` is imported and once
after every program thread and child process has stopped, so the
program under test cannot slow its own calibration.  GEMM is left out:
threaded BLAS gave erratic minima on a shared 2-core host.

``speed_factor = mean(pre, post) / NOMINAL_SECONDS``.  A factor of 1.3
means the host ran 30 % slower than when ``NOMINAL_SECONDS`` was
recorded; timings are divided by it and rates multiplied by it.

A workload that keeps several processes busy is calibrated with as many
copies of the kernel running at once (:func:`measure_parallel`): on a
2-core host a neighbour taking one core barely slows a single copy but
slows a two-process workload by half, and two copies see it.
"""

from __future__ import annotations

import gc
import os
import statistics
import struct
import time

import numpy as np
from scipy.linalg import solve_toeplitz

#: Kernel time (s) of one sample on the reference host (2-core x86-64
#: container, Python 3.11, OpenBLAS 0.3.31, one BLAS thread).
NOMINAL_SECONDS = 0.0245

_LEVINSON_N = 1024
_LEVINSON_REPS = 18
_LOOP_N = 200_000
_SAMPLES = 15


def _python_loop(n: int) -> int:
    acc = 0
    d: dict[int, int] = {}
    for i in range(n):
        acc = (acc * 31 + i) % 1_000_003
        d[i & 255] = acc
    return acc + len(d)


def _sample(col: np.ndarray, rhs: np.ndarray) -> float:
    t0 = time.perf_counter()
    _python_loop(_LOOP_N)
    for _ in range(_LEVINSON_REPS):
        solve_toeplitz(col, rhs)
    return time.perf_counter() - t0


def measure() -> float:
    """Median kernel seconds over a fixed number of samples.

    The garbage collector is off while the kernel runs: otherwise a
    collection over a large program heap would be charged to the host.
    """
    col = 0.5 ** np.arange(_LEVINSON_N)
    rhs = np.linspace(-1.0, 1.0, _LEVINSON_N)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _sample(col, rhs)                  # warm the code paths
        return statistics.median(_sample(col, rhs)
                                 for _ in range(_SAMPLES))
    finally:
        if was_enabled:
            gc.enable()



def measure_parallel(processes: int) -> float:
    """Mean of :func:`measure` run at the same time in ``processes``
    forked children (the calling process must have no other threads)."""
    if processes == 1:
        return measure()
    go_r, go_w = os.pipe()
    kids = []
    for _ in range(processes):
        res_r, res_w = os.pipe()
        pid = os.fork()
        if pid == 0:                          # child: wait, measure, report
            code = 1
            try:
                os.close(go_w)
                os.close(res_r)
                os.read(go_r, 1)
                os.write(res_w, struct.pack("d", measure()))
                code = 0
            finally:
                os._exit(code)
        os.close(res_w)
        kids.append((pid, res_r))
    os.close(go_r)
    os.write(go_w, b"g" * processes)          # start every copy at once
    os.close(go_w)
    values = []
    for pid, fd in kids:
        with os.fdopen(fd, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or len(data) != 8:
            raise RuntimeError("calibration child failed")
        values.append(struct.unpack("d", data)[0])
    return statistics.mean(values)


if __name__ == "__main__":
    print(f"{measure():.6f}")
