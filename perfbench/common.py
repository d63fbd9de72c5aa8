"""Shared helpers: statistics, answer checks, process hygiene.

Nothing here imports ``repro``: the checks are independent of the code
they check, and the hygiene helpers must run before ``repro`` is
imported and after it has stopped.
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time

import numpy as np

#: ‖Tx − b‖ / ‖b‖ above this fails the answer.  Every workload is SPD
#: with condition number below about 100, where a weakly stable Schur
#: solve (Bojanczyk–Brent–de Hoog) leaves residuals near 1e-15.
RESIDUAL_TOL = 1e-10

#: Agreement required between a served (coalesced) or distributed answer
#: and the uncoalesced / serial answer to the same system.
PARITY_TOL = 1e-10


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def iqr_over_median(values) -> float:
    """Quartile spread as a share of the median (the steadiness figure)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
class BlockMatvec:
    """FFT product with a symmetric block Toeplitz matrix.

    Built from the first block row ``blocks[d] = T_{0,d}`` only (the
    matrix's own defining data), so the check shares no code with the
    solver: ``T_{i,j} = blocks[j-i]`` for ``j ≥ i`` and ``blocks[i-j]ᵀ``
    below the diagonal.
    """

    def __init__(self, blocks: np.ndarray):
        p, m, _ = blocks.shape
        size = 1
        while size < 2 * p:
            size *= 2
        ker = np.zeros((size, m, m))
        ker[0] = blocks[0]
        for d in range(1, p):
            ker[d] = blocks[d].T          # block below the diagonal
            ker[size - d] = blocks[d]     # block above the diagonal
        self._kf = np.fft.rfft(ker, axis=0)
        self._p, self._m, self._size = p, m, size

    def __call__(self, x: np.ndarray) -> np.ndarray:
        p, m = self._p, self._m
        xs = np.zeros((self._size, m))
        xs[:p] = x.reshape(p, m)
        yf = np.einsum("fab,fb->fa", self._kf, np.fft.rfft(xs, axis=0))
        return np.fft.irfft(yf, n=self._size, axis=0)[:p].reshape(-1)


def relative_residual(matvec, x: np.ndarray, b: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != b.shape or not np.all(np.isfinite(x)):
        return float("inf")
    return float(np.linalg.norm(matvec(x) - b) / np.linalg.norm(b))


def relative_difference(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x) - np.asarray(y))
                 / np.linalg.norm(y))


def first_block_row(op) -> np.ndarray:
    """``(p, m, m)`` first block row of a symmetric block Toeplitz."""
    return np.array(op.top_blocks, dtype=float)


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
def child_pids() -> list[int]:
    """Live (not yet reaped) children of this process, from ``/proc``."""
    me = os.getpid()
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == me:
            kids.append(int(entry))
    return kids


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker if this process started it.

    Shared-memory segments register with a tracker process that lives
    until its parent exits; it must be gone before the post-run
    calibration.  ``_stop`` closes its pipe and reaps it.
    """
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def reap_children(timeout: float = 5.0) -> list[int]:
    """Terminate and reap every child; returns the pids that were alive."""
    stop_resource_tracker()
    kids = child_pids()
    for pid in kids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    pending = set(kids)
    while pending and time.monotonic() < deadline:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pending.discard(pid)
        if pending:
            time.sleep(0.02)
    for pid in pending:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return kids


def quiescence_problems() -> list[str]:
    """Why the program is not fully stopped (empty list when it is)."""
    problems = []
    extra = [t.name for t in threading.enumerate()
             if t is not threading.main_thread()]
    if extra:
        problems.append(f"threads still alive: {extra}")
    kids = child_pids()
    if kids:
        problems.append(f"child processes still alive: {kids}")
    return problems
