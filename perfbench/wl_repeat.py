"""repeat_oneshot: one caller, ``engine.solve(..., cache="persistent")``.

The caller draws AR block operators from a Zipf(1.0) working set of 40
that is larger than its own 16-entry ``FactorizationCache``, over a
pre-populated ``CacheStore`` in the run directory; every 200th call
brings a never-seen operator.  Fingerprint, plan, probe and both cache
tiers run on every call while the factor kernel mostly idles: memory
hits (about 69 % of calls) hold p50, disk hits (about 31 %) hold p90,
and the new operators put writes (factor, publish, evict) beside the
reads.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

import common
import harness
from harness import Outcome

NUM_BLOCKS, BLOCK = 64, 4          # n = 256
WORKING_SET = 40
MEMORY_ENTRIES = 16
ZIPF_S = 1.0
NEW_EVERY = 200
WARMUP_CALLS = 200

#: Kernel copies the host-speed calibration runs at once (one caller).
CALIBRATION_PROCESSES = 1


def _operator(seed: int, index: int, tiny: bool):
    from repro import ar_block_toeplitz
    p = 8 if tiny else NUM_BLOCKS
    return ar_block_toeplitz(p, BLOCK, seed=[seed, 7, index])


def _input(state, i, allow_new=True):
    if allow_new and i % NEW_EVERY == NEW_EVERY - 1:
        state.new += 1
        op = _operator(state.seed, WORKING_SET + state.new, state.tiny)
        mv = None
    else:
        k = int(state.ranks[state.rng.choice(WORKING_SET, p=state.zipf)])
        op, mv = state.ops[k], state.matvecs[k]
    b = state.rng.standard_normal(op.order)
    return op, b, mv


def _call(inp):
    from repro import engine
    op, b, _ = inp
    return engine.solve(op, b, cache="persistent")


def _check(inp, res):
    op, b, mv = inp
    if mv is None:
        mv = common.BlockMatvec(common.first_block_row(op))
    r = common.relative_residual(mv, res.x, b)
    if r > common.RESIDUAL_TOL:
        return f"residual {r:.3g}"
    return None


def setup(ctx):
    import os
    from repro import engine
    rng = harness.fresh_rng(ctx.seed, 2)
    zipf = 1.0 / np.arange(1, WORKING_SET + 1) ** ZIPF_S
    state = SimpleNamespace(
        seed=ctx.seed, tiny=ctx.tiny, rng=rng, new=0,
        zipf=zipf / zipf.sum(), ranks=rng.permutation(WORKING_SET),
        store=engine.CacheStore(os.path.join(ctx.rundir, "store")),
        cache=engine.FactorizationCache(max_entries=MEMORY_ENTRIES))
    engine.set_default_store(state.store)
    engine.set_default_cache(state.cache)
    state.ops = [_operator(ctx.seed, k, ctx.tiny)
                 for k in range(WORKING_SET)]
    state.matvecs = [common.BlockMatvec(common.first_block_row(op))
                     for op in state.ops]
    # Populate the store with the whole working set, then start the
    # caller's memory tier empty and let a warm-up stream fill it.
    for op, mv in zip(state.ops, state.matvecs):
        b = rng.standard_normal(op.order)
        err = _check((op, b, mv), _call((op, b, mv)))
        if err:
            raise RuntimeError(f"store population answer wrong: {err}")
    state.cache.clear()
    for i in range(WARMUP_CALLS):
        inp = _input(state, i, allow_new=False)
        err = _check(inp, _call(inp))
        if err:
            raise RuntimeError(f"warm-up answer wrong: {err}")
    return state


def _tier_counts(state):
    c, s = state.cache.stats(), state.store.stats()
    return {"mem_hits": c.hits, "mem_misses": c.misses,
            "evictions": c.evictions, "disk_hits": s.disk_hits,
            "disk_misses": s.disk_misses, "quarantined": s.quarantined}


def _delta(before, after):
    return {k: after[k] - before[k] for k in before}


def _mix(d, calls):
    return {"memory": d["mem_hits"] / calls, "disk": d["disk_hits"] / calls,
            "new": d["disk_misses"] / calls}


def run(state, ctx):
    out = Outcome()
    loop = lambda secs, o, **kw: harness.closed_loop(  # noqa: E731
        lambda i: _input(state, i), _call, _check, secs, o,
        min_calls=NEW_EVERY, **kw)
    before = _tier_counts(state)
    if not ctx.trace:
        loop(ctx.seconds, out)
        out.info["mix"] = _mix(_delta(before, _tier_counts(state)),
                               out.attempted)
        return out
    from repro.engine import CacheStore
    from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz
    import os
    base = loop(0.3 * ctx.seconds, Outcome())
    before = _tier_counts(state)
    roots: list = []

    def written(store, args, wrote):
        return os.path.getsize(store.path_for(args[0])) if wrote else 0

    with harness.traced(), \
            harness.CallTimer(SymmetricBlockToeplitz, "fingerprint") as fp, \
            harness.CallTimer(CacheStore, "put", after=written) as put:
        loop(0.6 * ctx.seconds, out, root_spans=roots)
    d = _delta(before, _tier_counts(state))
    lookups = d["mem_hits"] + d["mem_misses"]
    disk_lookups = d["disk_hits"] + d["disk_misses"]
    out.layers = harness.span_layers(roots)
    out.layers.update({
        "toeplitz.fingerprint_ms": harness.median_ms(fp.seconds),
        "engine.cache.hit_ratio": d["mem_hits"] / lookups,
        "engine.cache.evictions": float(d["evictions"]),
        "engine.cache_store.hit_ratio": d["disk_hits"] / disk_lookups,
        "engine.cache_store.put_ms": harness.median_ms(put.seconds),
        "engine.cache_store.bytes_written": float(put.extra),
        "engine.cache_store.quarantined": float(d["quarantined"]),
        "core.factor.py_calls": harness.factor_py_calls(state.ops[0]),
        "trace.overhead_frac": harness.overhead_frac(base.latencies,
                                                     out.latencies),
    })
    out.info["mix"] = _mix(d, out.attempted)
    out.attempted += base.attempted
    out.failed += base.failed
    out.errors += base.errors
    out.info["untraced_latencies"] = base.latencies
    return out


def teardown(state):
    from repro import engine
    engine.set_default_store(None)
    engine.set_default_cache(engine.FactorizationCache())
