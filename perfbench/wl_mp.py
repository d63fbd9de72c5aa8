"""distributed_mp: one caller, the multiprocess backend on fresh operators.

Each call is ``engine.execute(plan(T, nproc=2, backend="multiprocess",
cache="off"), b)`` on a never-seen AR block operator (m = 8, n = 512).
It is the only workload that runs ``parallel.mp_backend`` and
``parallel.transport``, and it guards the SPMD rewrite, whose gate is
"mp wall time ≤ 1.1× today's".

An answer that fell back (a ``fallback_reason``, a backend other than
``multiprocess`` for the factor or the solve) is a failure, and a
seeded sample is compared with a serial factor of the same system.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace

import common
import harness
from harness import Outcome

NUM_BLOCKS, BLOCK = 64, 8          # n = 512
NPROC = 2
WARMUP = 2
#: Share of calls whose answer is also compared with a serial factor.
PARITY_SHARE = 0.1
#: Operators factored both ways for ``parallel.mp.speedup_vs_serial``.
SPEEDUP_SAMPLE = 5

#: Kernel copies the host-speed calibration runs at once: two, one per
#: worker.  With a core-hogging neighbour one copy slowed 3 % while this
#: workload slowed 33 % and two copies 55 %.
CALIBRATION_PROCESSES = 2


def _input(state, i):
    from repro import ar_block_toeplitz
    p = 8 if state.tiny else NUM_BLOCKS
    op = ar_block_toeplitz(p, BLOCK, seed=[state.seed, 13, state.count])
    state.count += 1
    b = state.rng.standard_normal(op.order)
    return op, b, bool(state.rng.random() < PARITY_SHARE)


def _plan(op):
    from repro import engine
    return engine.plan(op, nproc=NPROC, backend="multiprocess", cache="off")


def _call(inp):
    from repro import engine
    op, b, _ = inp
    return engine.execute(_plan(op), b)


def _check(inp, res):
    from repro import engine
    op, b, parity = inp
    fact = res.detail
    backend = getattr(fact, "backend", None)
    if backend != "multiprocess" or getattr(fact, "fallback_reason", ""):
        return (f"factor ran on {backend!r}: "
                f"{getattr(fact, 'fallback_reason', '')}")
    if fact.last_solve_backend != "multiprocess":
        return (f"solve ran on {fact.last_solve_backend!r}: "
                f"{fact.last_solve_fallback_reason}")
    if res.fallback_used:
        return "engine fell back to the indefinite path"
    mv = common.BlockMatvec(common.first_block_row(op))
    r = common.relative_residual(mv, res.x, b)
    if r > common.RESIDUAL_TOL:
        return f"residual {r:.3g}"
    if parity:
        ref = engine.execute(engine.plan(op, cache="off"), b).x
        d = common.relative_difference(res.x, ref)
        if d > common.PARITY_TOL:
            return f"differs from the serial factor by {d:.3g}"
    return None


def setup(ctx):
    from repro.parallel.mp_backend import multiprocess_available
    ok, why = multiprocess_available()
    if not ok:
        raise RuntimeError(f"multiprocess backend unavailable: {why}")
    state = SimpleNamespace(seed=ctx.seed, tiny=ctx.tiny, count=0,
                            rng=harness.fresh_rng(ctx.seed, 5))
    for i in range(WARMUP):
        inp = _input(state, i)
        err = _check(inp, _call(inp))
        if err:
            raise RuntimeError(f"warm-up answer wrong: {err}")
    return state


def _speedup_sample(state):
    """mp and serial factor times of the same operators, same run."""
    from repro import engine

    def timed_factor(pl):
        t0 = time.perf_counter()
        fact = engine.factor(pl).factorization
        return time.perf_counter() - t0, fact

    mp, serial = [], []
    for i in range(SPEEDUP_SAMPLE):
        op = _input(state, i)[0]
        seconds, fact = timed_factor(_plan(op))
        mp.append(seconds)
        serial.append(timed_factor(engine.plan(op, cache="off"))[0])
    return (statistics.median(serial) / statistics.median(mp),
            float(sum(fact.run.broadcast_words_by_rank().values())),
            float(sum(fact.run.words_by_rank().values())))


def run(state, ctx):
    out = Outcome()
    loop = lambda secs, o, **kw: harness.closed_loop(  # noqa: E731
        lambda i: _input(state, i), _call, _check, secs, o, **kw)
    if not ctx.trace:
        return loop(ctx.seconds, out, min_calls=20)
    base = loop(0.3 * ctx.seconds, Outcome(), min_calls=20)
    roots: list = []
    with harness.traced():
        loop(0.5 * ctx.seconds, out, min_calls=10, root_spans=roots)
    speedup, bcast, shift = _speedup_sample(state)
    out.layers = harness.span_layers(roots)
    mp_factor = [sp.duration for root in roots for sp in root.walk()
                 if sp.name == "factor.distributed"]
    out.layers.update({
        "parallel.mp.factor_ms": harness.median_ms(mp_factor),
        "parallel.mp.speedup_vs_serial": speedup,
        "parallel.mp.broadcast_words": bcast,
        "parallel.mp.shift_words": shift,
        "trace.overhead_frac": harness.overhead_frac(base.latencies,
                                                     out.latencies),
    })
    out.attempted += base.attempted
    out.failed += base.failed
    out.errors += base.errors
    out.info["untraced_latencies"] = base.latencies
    return out


def teardown(state):
    # Shared-memory segments started multiprocessing's resource tracker;
    # it must be reaped before the post-run calibration.
    common.stop_resource_tracker()
