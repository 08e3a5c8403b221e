"""Rank-test benchmark: the exact modular kernel, replayed.

Workload: the combined divide-and-conquer run (Algorithm 3) on the yeast
Network I small variant with a ``q_sub = 5`` tail partition, where the
``2^q_sub`` subproblems repeatedly test overlapping supports of the same
reduced stoichiometry and the shared rank memo turns that redundancy into
hits.

The run is solved once with a spy on every ``rank_test`` call (the way
``tests/properties/test_prescreen.py`` spies on ``stream_iteration``).
The recorded call sequence is then replayed through the rank test's
engine, :func:`repro.linalg.modular.modular_ranks`, with fresh memos
bound exactly as the run bound its own (one fresh cache per cache of the
run, same token, same canonical column map) and a cold prepared-problem
registry.  The replay must reproduce the run's acceptance masks.

Writes ``BENCH_ranktest.json`` and ``ranktest_backends.txt`` under
``benchmarks/out/``.  Repetitions come from ``REPRO_BENCH_REPS`` (default
3; CI's smoke job sets 1); the replay time is the best over repetitions,
the standard guard against scheduler noise on shared runners.
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
from repro.linalg.rankmemo import CacheBinding, RankCache
from repro.models.variants import yeast_1_small
from repro.network.compression import compress_network

Q_SUB = 5
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

    def spy(candidates, n_perm, rank_bound, *, cache=None, stats=None):
        accept = real(candidates, n_perm, rank_bound, cache=cache, stats=stats)
        calls.append({
            "candidates": candidates,
            "n_perm": n_perm,
            "rank_bound": rank_bound,
            "cache": cache,
            "accept": accept,
        })
        return accept

    with mock.patch.object(iterstream, "rank_test", spy):
        run = combined_parallel(reduced, partition, 1)
    return run, partition, calls


def _replay(calls):
    """One timed replay of ``calls`` with fresh memos; returns the total
    seconds, counters and masks."""
    modular._REGISTRY.clear()
    modular._ID_CACHE.clear()
    fresh: dict[int, RankCache] = {}
    stats = IterationStats(position=-1, reaction="replay", reversible=False)
    masks = []
    total = 0.0
    for call in calls:
        binding = call["cache"]
        if binding is not None:
            cache = fresh.setdefault(id(binding.cache), RankCache())
            binding = CacheBinding(cache, binding.token, binding.col_ids)
        t0 = time.perf_counter()
        mask = ranktest.rank_test(
            call["candidates"], call["n_perm"], call["rank_bound"],
            cache=binding, stats=stats,
        )
        total += time.perf_counter() - t0
        masks.append(mask)
    counters = {name: getattr(stats, name) for name in COUNTERS}
    return {"t": total, "counters": counters, "masks": masks}


@pytest.fixture(scope="module")
def replay():
    run, partition, calls = _record_run()
    best = None
    for _ in range(REPS):
        rep = _replay(calls)
        if best is None or rep["t"] < best["t"]:
            best = rep
    return {"run": run, "partition": partition, "calls": calls, **best}


def _n_tested(calls) -> int:
    return sum(c["candidates"].n_modes for c in calls)


def test_replay_reproduces_the_run(replay):
    assert replay["run"].n_efms == 530
    assert len(replay["masks"]) == len(replay["calls"])
    for call, mask in zip(replay["calls"], replay["masks"]):
        assert np.array_equal(call["accept"], mask)


def test_ranktest_backends_artifact(replay, write_artifact):
    calls = replay["calls"]
    c = replay["counters"]
    table = Table(
        title=(
            "BENCH — exact rank-test kernel, replayed "
            f"(yeast-I-small, combined, q_sub={Q_SUB}, {len(calls)} calls, "
            f"best of {REPS})"
        ),
        columns=[
            "engine", "candidates", "replay (ms)", "cache hits", "batches",
            "unit members", "fallbacks",
        ],
    )
    table.add_row(
        "modular", _n_tested(calls), round(replay["t"] * 1e3, 1),
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
            "partition": list(replay["partition"]),
            "rank_test_calls": len(calls),
            "candidates": _n_tested(calls),
            "repetitions": REPS,
            "aggregation": "best",
            "measured": "replay of the run's rank_test calls, fresh memos",
        },
        "modular": {"t_replay": replay["t"], **c},
        "cache_hit_share": c["n_rank_cache_hits"] / _n_tested(calls),
    }
    write_artifact("BENCH_ranktest.json", json.dumps(payload, indent=2))


def test_modular_unit_reduction_engaged(replay):
    """The unit-row reduction must actually fire on this workload, and the
    residue kernel must certify everything without exact stragglers."""
    counters = replay["counters"]
    assert counters["n_rank_unit_members"] > 0
    assert counters["n_rank_modular"] > 0
    assert counters["n_rank_fallback"] == 0


def test_cache_hits_across_subproblems(replay):
    """Algorithm 3's redundancy must become memo hits."""
    tested = _n_tested(replay["calls"])
    hits = replay["counters"]["n_rank_cache_hits"]
    assert hits > tested // 2  # majority served from the memo


def test_medium_registry_equivalence():
    """Kernel/oracle equivalence at the medium registry scale (the small
    variants and toy run the same assertion in the tier-1 parity suite;
    yeast-II-medium is out of pure-Python benchmark reach).  The
    reference is the per-candidate SVD loop of ``tests/core/rank_oracle``."""
    from repro.models import variants
    from tests.core.rank_oracle import solve_with

    net = variants.yeast_1_medium()
    by_modular = compute_efms(net)
    by_loop = solve_with("loop", compute_efms, net)
    assert by_modular.n_efms == by_loop.n_efms
    assert by_modular.same_modes_as(by_loop)
