"""Rank-test benchmark: the modular kernel vs. its SVD fallback.

Workload: the combined divide-and-conquer run (Algorithm 3) on the yeast
Network I small variant with a ``q_sub = 5`` tail partition, where the
``2^q_sub`` subproblems repeatedly test overlapping supports of the same
reduced stoichiometry and the shared rank memo turns that redundancy into
hits.

The run is solved once with a spy on every ``rank_test`` call (the way
``tests/properties/test_prescreen.py`` spies on ``stream_iteration``).
The recorded call sequence is then replayed through the rank test's
engine, :func:`repro.linalg.modular.modular_ranks`, and through its SVD
fallback, :func:`repro.linalg.batched.bucketed_ranks`, each with fresh
memos bound exactly as the run bound its own (one fresh cache per cache
of the run, same token, same canonical column map) and a cold
prepared-problem registry.  Both replays must reproduce the run's
acceptance masks.

Writes ``BENCH_ranktest.json`` and ``ranktest_backends.txt`` under
``benchmarks/out/``.  The acceptance bar: the kernel's replay is >= 1.5x
faster than the fallback's at the *dominant* elimination position (where
the fallback spends the most replay time).  Repetitions come from
``REPRO_BENCH_REPS`` (default 3; CI's smoke job sets 1); each engine's
time is the best replay over repetitions, the standard guard against
scheduler noise on shared runners.
"""

from __future__ import annotations

import json
import os
import time
from unittest import mock

import numpy as np
import pytest

from repro.bench.tables import Table
from repro.config import AlgorithmOptions
from repro.core import iterstream, ranktest
from repro.core.stats import IterationStats
from repro.dnc.combined import combined_parallel
from repro.dnc.selection import select_partition_reactions
from repro.efm.api import compute_efms
from repro.linalg import modular
from repro.linalg.batched import CacheBinding, RankCache, bucketed_ranks
from repro.models.variants import yeast_1_small
from repro.network.compression import compress_network

Q_SUB = 5
MODULAR_SPEEDUP_TARGET = 1.5
ENGINES = {"batched": bucketed_ranks, "modular": modular.modular_ranks}
REPS = max(1, int(os.environ.get("REPRO_BENCH_REPS", "3")))
COUNTERS = (
    "n_rank_cache_hits", "n_rank_batches", "n_rank_modular",
    "n_rank_unit_members", "n_rank_fallback",
)


def _record_run():
    """Solve the workload once, recording every ``rank_test`` call."""
    reduced = compress_network(yeast_1_small()).reduced
    partition = select_partition_reactions(
        reduced, Q_SUB, method="tail", options=AlgorithmOptions()
    )
    calls = []
    real = iterstream.rank_test

    def spy(candidates, n_perm, rank_bound, *, cache=None, stats=None, **kw):
        accept = real(
            candidates, n_perm, rank_bound, cache=cache, stats=stats, **kw
        )
        calls.append({
            "candidates": candidates,
            "n_perm": n_perm,
            "rank_bound": rank_bound,
            "kwargs": kw,
            "cache": cache,
            "position": stats.position,
            "accept": accept,
        })
        return accept

    with mock.patch.object(iterstream, "rank_test", spy):
        run = combined_parallel(reduced, partition, 1)
    return run, partition, calls


def _replay(calls, engine: str):
    """One timed replay of ``calls`` with fresh memos; returns the total
    seconds, seconds per elimination position, counters and masks."""
    modular._REGISTRY.clear()
    modular._ID_CACHE.clear()
    fresh: dict[int, RankCache] = {}
    stats = IterationStats(position=-1, reaction="replay", reversible=False)
    per_position: dict[int, float] = {}
    masks = []
    total = 0.0
    with mock.patch.object(ranktest, "modular_ranks", ENGINES[engine]):
        for call in calls:
            binding = call["cache"]
            if binding is not None:
                cache = fresh.setdefault(id(binding.cache), RankCache())
                binding = CacheBinding(cache, binding.token, binding.col_ids)
            t0 = time.perf_counter()
            mask = ranktest.rank_test(
                call["candidates"], call["n_perm"], call["rank_bound"],
                cache=binding, stats=stats, **call["kwargs"],
            )
            dt = time.perf_counter() - t0
            total += dt
            pos = call["position"]
            per_position[pos] = per_position.get(pos, 0.0) + dt
            masks.append(mask)
    counters = {name: getattr(stats, name) for name in COUNTERS}
    return {
        "t": total, "per_position": per_position, "counters": counters,
        "masks": masks,
    }


@pytest.fixture(scope="module")
def replays():
    run, partition, calls = _record_run()
    out = {"run": run, "partition": partition, "calls": calls}
    for engine in ENGINES:
        best = None
        for _ in range(REPS):
            rep = _replay(calls, engine)
            if best is None or rep["t"] < best["t"]:
                best = rep
        out[engine] = best
    return out


def _dominant_position(replays) -> tuple[int, float, float]:
    """(position, t_batched, t_modular) at the fallback's costliest
    position."""
    by_batched = replays["batched"]["per_position"]
    pos = max(by_batched, key=by_batched.get)
    return pos, by_batched[pos], replays["modular"]["per_position"].get(pos, 0.0)


def _n_tested(calls) -> int:
    return sum(c["candidates"].n_modes for c in calls)


def test_replays_reproduce_the_run(replays):
    assert replays["run"].n_efms == 530
    for engine in ENGINES:
        masks = replays[engine]["masks"]
        assert len(masks) == len(replays["calls"]), engine
        for call, mask in zip(replays["calls"], masks):
            assert np.array_equal(call["accept"], mask), engine


def test_ranktest_backends_artifact(replays, write_artifact):
    calls = replays["calls"]
    dom_pos, dom_batched, dom_modular = _dominant_position(replays)
    dom_speedup = dom_batched / dom_modular if dom_modular else float("inf")
    t_batched = replays["batched"]["t"]
    t_modular = replays["modular"]["t"]

    table = Table(
        title=(
            "BENCH — rank-test engine vs. SVD fallback, replayed "
            f"(yeast-I-small, combined, q_sub={Q_SUB}, {len(calls)} calls, "
            f"best of {REPS})"
        ),
        columns=[
            "engine", "candidates", "replay (ms)", f"position {dom_pos} (ms)",
            "cache hits", "batches", "unit members", "fallbacks",
        ],
    )
    for engine in ENGINES:
        rep = replays[engine]
        c = rep["counters"]
        table.add_row(
            engine, _n_tested(calls), round(rep["t"] * 1e3, 1),
            round(rep["per_position"].get(dom_pos, 0.0) * 1e3, 1),
            c["n_rank_cache_hits"], c["n_rank_batches"],
            c["n_rank_unit_members"], c["n_rank_fallback"],
        )
    write_artifact("ranktest_backends.txt", table.render())

    payload = {
        "benchmark": "ranktest_backends",
        "network": "yeast-I-small",
        "workload": {
            "method": "combined",
            "q_sub": Q_SUB,
            "partition": list(replays["partition"]),
            "rank_test_calls": len(calls),
            "candidates": _n_tested(calls),
            "repetitions": REPS,
            "aggregation": "best",
            "measured": "replay of the run's rank_test calls, fresh memos",
        },
        "batched": {"t_replay": t_batched, **replays["batched"]["counters"]},
        "modular": {"t_replay": t_modular, **replays["modular"]["counters"]},
        "modular_speedup_total": t_batched / t_modular,
        "cache_hit_share": (
            replays["modular"]["counters"]["n_rank_cache_hits"]
            / _n_tested(calls)
        ),
        "dominant_iteration": {
            "position": dom_pos,
            "t_batched": dom_batched,
            "t_modular": dom_modular,
            "speedup": dom_speedup,
        },
        "modular_speedup_target": MODULAR_SPEEDUP_TARGET,
        "modular_meets_target": bool(dom_speedup >= MODULAR_SPEEDUP_TARGET),
    }
    write_artifact("BENCH_ranktest.json", json.dumps(payload, indent=2))


def test_modular_dominant_iteration_speedup(replays):
    """The kernel's acceptance bar: >= 1.5x over its SVD fallback on the
    dominant iteration — the fallback's costliest elimination position."""
    dom_pos, dom_batched, dom_modular = _dominant_position(replays)
    assert dom_modular > 0.0
    ratio = dom_batched / dom_modular
    assert ratio >= MODULAR_SPEEDUP_TARGET, (
        f"modular dominant-iteration speedup {ratio:.2f}x below "
        f"{MODULAR_SPEEDUP_TARGET}x target at position {dom_pos} "
        f"(batched {dom_batched:.4f}s vs modular {dom_modular:.4f}s)"
    )


def test_modular_unit_reduction_engaged(replays):
    """The unit-row reduction must actually fire on this workload, and the
    residue kernel must certify everything without SVD rescue."""
    counters = replays["modular"]["counters"]
    assert counters["n_rank_unit_members"] > 0
    assert counters["n_rank_modular"] > 0
    assert counters["n_rank_fallback"] == 0


def test_cache_hits_across_subproblems(replays):
    """Algorithm 3's redundancy must become memo hits, on the kernel and
    on its fallback alike."""
    tested = _n_tested(replays["calls"])
    for engine in ENGINES:
        hits = replays[engine]["counters"]["n_rank_cache_hits"]
        assert hits > tested // 2, engine  # majority served from the memo


def test_medium_registry_equivalence():
    """Kernel/fallback equivalence at the medium registry scale (the small
    variants and toy run the same assertion, against the loop oracle too,
    in the tier-1 parity suite; yeast-II-medium is out of pure-Python
    benchmark reach)."""
    from repro.models import variants

    net = variants.yeast_1_medium()
    by_modular = compute_efms(net)
    with mock.patch.object(ranktest, "modular_ranks", bucketed_ranks):
        by_batched = compute_efms(net)
    assert by_modular.n_efms == by_batched.n_efms
    assert by_modular.same_modes_as(by_batched)
