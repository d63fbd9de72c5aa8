"""cold_oneshot: one caller, ``repro.solve`` on never-seen operators.

Each call solves with a fresh SPD point Toeplitz operator (KMS, seeded
ρ, n = 512), so plan, probe and the cold Schur factor
(``core.schur_spd``, ``core.block_reflector``, ``core.hyperbolic``) do
almost all the work; point Toeplitz is where per-reflector Python
overhead and the default ``m_s = 1`` bite.  Dispatcher, wire and disk
do nothing.
"""

from __future__ import annotations

from types import SimpleNamespace

import common
import harness
from harness import Outcome

N = 512
TINY_N = 64
WARMUP = 2

#: Kernel copies the host-speed calibration runs at once (one caller).
CALIBRATION_PROCESSES = 1


def _input(state, i):
    from repro import kms_toeplitz
    rho = float(state.rng.uniform(0.2, 0.8))
    op = kms_toeplitz(state.n, rho)
    b = state.rng.standard_normal(state.n)
    return op, b, rho


def _check(inp, x):
    op, b, rho = inp
    mv = common.BlockMatvec(common.first_block_row(op))
    res = common.relative_residual(mv, x, b)
    if res > common.RESIDUAL_TOL:
        return f"KMS rho={rho:.4f}: residual {res:.3g}"
    return None


def _call(inp):
    import repro
    op, b, _ = inp
    return repro.solve(op, b)


def setup(ctx):
    import repro  # noqa: F401  (import cost belongs to set-up)
    state = SimpleNamespace(n=TINY_N if ctx.tiny else N,
                            rng=harness.fresh_rng(ctx.seed, 1))
    for i in range(WARMUP):
        inp = _input(state, i)
        err = _check(inp, _call(inp))
        if err:
            raise RuntimeError(f"warm-up answer wrong: {err}")
    return state


def run(state, ctx):
    out = Outcome()
    if not ctx.trace:
        return harness.closed_loop(lambda i: _input(state, i), _call,
                                   _check, ctx.seconds, out, min_calls=20)
    from repro import engine
    from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz
    base = harness.closed_loop(lambda i: _input(state, i), _call, _check,
                               0.3 * ctx.seconds, Outcome(), min_calls=20)
    roots: list = []
    before = engine.default_cache().stats()
    with harness.traced(), \
            harness.CallTimer(SymmetricBlockToeplitz, "fingerprint") as fp:
        harness.closed_loop(lambda i: _input(state, i), _call, _check,
                            0.6 * ctx.seconds, out, min_calls=10,
                            root_spans=roots)
    after = engine.default_cache().stats()
    out.layers = harness.span_layers(roots)
    out.layers["toeplitz.fingerprint_ms"] = harness.median_ms(fp.seconds)
    lookups = after.hits + after.misses - before.hits - before.misses
    out.layers["engine.cache.hit_ratio"] = (after.hits - before.hits) / lookups
    out.layers["engine.cache.evictions"] = float(after.evictions
                                                 - before.evictions)
    out.layers["core.factor.py_calls"] = harness.factor_py_calls(
        _input(state, -1)[0])
    out.layers["trace.overhead_frac"] = harness.overhead_frac(
        base.latencies, out.latencies)
    out.attempted += base.attempted
    out.failed += base.failed
    out.errors += base.errors
    out.info["untraced_latencies"] = base.latencies
    return out


def teardown(state):
    pass
