"""Rank-test backend benchmark: modular vs. batched vs. the loop reference.

Workload: the combined divide-and-conquer run (Algorithm 3) on the yeast
Network I small variant with a ``q_sub = 5`` tail partition — the
configuration the accelerated engines target, where the ``2^q_sub``
subproblems repeatedly test overlapping supports of the same reduced
stoichiometry and the shared rank memo turns that redundancy into hits.

Reports the rank-test phase time (``t_rank_test`` in ``RunStats``) for
all three backends and writes a machine-readable ``BENCH_ranktest.json``
artifact next to the text reports under ``benchmarks/out/``.  Two
acceptance bars are asserted: the batched engine's >= 3x over the loop,
and the modular engine's >= 1.5x over batched on the *dominant* iteration
(the elimination position where batched spends the most rank-test time —
the spot the residue-field kernel and its unit-row reduction were built
for).
Repetitions come from ``REPRO_BENCH_REPS`` (default 3; CI's smoke job
sets 1); each backend's time is the best over repetitions, which is the
standard guard against scheduler noise on shared runners.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.bench.tables import Table
from repro.config import AlgorithmOptions
from repro.dnc.combined import combined_parallel
from repro.dnc.selection import select_partition_reactions
from repro.efm.api import compute_efms
from repro.models.variants import yeast_1_small
from repro.network.compression import compress_network

Q_SUB = 5
SPEEDUP_TARGET = 3.0
MODULAR_SPEEDUP_TARGET = 1.5
BACKENDS = ("loop", "batched", "modular")
REPS = max(1, int(os.environ.get("REPRO_BENCH_REPS", "3")))


def _canonical(rows: np.ndarray) -> np.ndarray:
    """Unit max-norm scale + lexicographic sort, for order/scale-free
    EFM-set comparison (mirrors the test suite's helper)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[0] == 0:
        return rows
    scale = np.abs(rows).max(axis=1, keepdims=True)
    scale[scale == 0] = 1.0
    keys = np.round(rows / scale, 9)
    return keys[np.lexsort(keys.T[::-1])]


@pytest.fixture(scope="module")
def backend_runs():
    reduced = compress_network(yeast_1_small()).reduced
    partition = select_partition_reactions(
        reduced, Q_SUB, method="tail", options=AlgorithmOptions()
    )
    out = {"partition": partition, "reduced": reduced}
    for backend in BACKENDS:
        options = AlgorithmOptions(rank_backend=backend)
        best = None
        for _ in range(REPS):
            run = combined_parallel(reduced, partition, 1, options=options)
            t_rank = sum(
                s.stats.t_rank_test for s in run.subsets if s.stats is not None
            )
            if best is None or t_rank < best[1]:
                best = (run, t_rank)
        out[backend] = best
    return out


def _stat_sum(run, attr: str) -> int:
    return sum(
        getattr(s.stats, attr) for s in run.subsets if s.stats is not None
    )


def _per_position_t_rank(run) -> dict[int, float]:
    """Rank-test seconds summed per elimination position across all
    subproblems — the per-iteration profile the dominant-iteration bar
    is measured on."""
    acc: dict[int, float] = {}
    for s in run.subsets:
        if s.stats is None:
            continue
        for it in s.stats.iterations:
            acc[it.position] = acc.get(it.position, 0.0) + it.t_rank_test
    return acc


def _dominant_position(backend_runs) -> tuple[int, float, float]:
    """(position, t_batched, t_modular) at batched's costliest position."""
    batched_run, _ = backend_runs["batched"]
    modular_run, _ = backend_runs["modular"]
    by_batched = _per_position_t_rank(batched_run)
    by_modular = _per_position_t_rank(modular_run)
    pos = max(by_batched, key=by_batched.get)
    return pos, by_batched[pos], by_modular.get(pos, 0.0)


def test_backends_same_efm_set(backend_runs):
    loop_run, _ = backend_runs["loop"]
    assert loop_run.n_efms == 530
    ca = _canonical(loop_run.efms())
    for backend in ("batched", "modular"):
        run, _ = backend_runs[backend]
        assert run.n_efms == 530, backend
        cb = _canonical(run.efms())
        assert ca.shape == cb.shape, backend
        assert np.allclose(ca, cb, atol=1e-7), backend


def test_ranktest_backends_artifact(backend_runs, write_artifact):
    loop_run, t_loop = backend_runs["loop"]
    batched_run, t_batched = backend_runs["batched"]
    modular_run, t_modular = backend_runs["modular"]
    speedup = t_loop / t_batched
    modular_speedup = t_batched / t_modular
    dom_pos, dom_batched, dom_modular = _dominant_position(backend_runs)
    dom_speedup = dom_batched / dom_modular if dom_modular else float("inf")

    table = Table(
        title=(
            "BENCH — rank-test backends "
            f"(yeast-I-small, combined, q_sub={Q_SUB}, best of {REPS})"
        ),
        columns=[
            "backend", "# EFM", "rank tests", "t_rank_test (s)",
            "cache hits", "batches", "unit members", "fallbacks",
        ],
    )
    table.add_row(
        "loop", loop_run.n_efms, _stat_sum(loop_run, "total_rank_tests"),
        round(t_loop, 4), 0, 0, 0, 0,
    )
    table.add_row(
        "batched", batched_run.n_efms,
        _stat_sum(batched_run, "total_rank_tests"), round(t_batched, 4),
        _stat_sum(batched_run, "total_rank_cache_hits"),
        _stat_sum(batched_run, "total_rank_batches"), 0, 0,
    )
    table.add_row(
        "modular", modular_run.n_efms,
        _stat_sum(modular_run, "total_rank_tests"), round(t_modular, 4),
        _stat_sum(modular_run, "total_rank_cache_hits"),
        _stat_sum(modular_run, "total_rank_batches"),
        _stat_sum(modular_run, "total_rank_unit_members"),
        _stat_sum(modular_run, "total_rank_fallback"),
    )
    write_artifact("ranktest_backends.txt", table.render())

    payload = {
        "benchmark": "ranktest_backends",
        "network": "yeast-I-small",
        "workload": {
            "method": "combined",
            "q_sub": Q_SUB,
            "partition": list(backend_runs["partition"]),
            "repetitions": REPS,
            "aggregation": "best",
        },
        "loop": {
            "t_rank_test": t_loop,
            "n_efms": loop_run.n_efms,
            "rank_tests": _stat_sum(loop_run, "total_rank_tests"),
        },
        "batched": {
            "t_rank_test": t_batched,
            "n_efms": batched_run.n_efms,
            "rank_tests": _stat_sum(batched_run, "total_rank_tests"),
            "cache_hits": _stat_sum(batched_run, "total_rank_cache_hits"),
            "svd_batches": _stat_sum(batched_run, "total_rank_batches"),
        },
        "modular": {
            "t_rank_test": t_modular,
            "n_efms": modular_run.n_efms,
            "rank_tests": _stat_sum(modular_run, "total_rank_tests"),
            "cache_hits": _stat_sum(modular_run, "total_rank_cache_hits"),
            "kernel_batches": _stat_sum(modular_run, "total_rank_batches"),
            "modular_ranks": _stat_sum(modular_run, "total_rank_modular"),
            "rank_unit_members": _stat_sum(
                modular_run, "total_rank_unit_members"
            ),
            "fallbacks": _stat_sum(modular_run, "total_rank_fallback"),
        },
        "speedup": speedup,
        "speedup_target": SPEEDUP_TARGET,
        "meets_target": bool(speedup >= SPEEDUP_TARGET),
        "modular_speedup_total": modular_speedup,
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


def test_ranktest_speedup_target(backend_runs):
    """The batched engine's original acceptance bar: >= 3x over the loop."""
    _, t_loop = backend_runs["loop"]
    _, t_batched = backend_runs["batched"]
    assert t_loop / t_batched >= SPEEDUP_TARGET, (
        f"rank-test speedup {t_loop / t_batched:.2f}x below "
        f"{SPEEDUP_TARGET}x target (loop {t_loop:.4f}s vs "
        f"batched {t_batched:.4f}s)"
    )


def test_modular_dominant_iteration_speedup(backend_runs):
    """The modular engine's acceptance bar: >= 1.5x over batched on the
    dominant iteration — batched's costliest elimination position."""
    dom_pos, dom_batched, dom_modular = _dominant_position(backend_runs)
    assert dom_modular > 0.0
    ratio = dom_batched / dom_modular
    assert ratio >= MODULAR_SPEEDUP_TARGET, (
        f"modular dominant-iteration speedup {ratio:.2f}x below "
        f"{MODULAR_SPEEDUP_TARGET}x target at position {dom_pos} "
        f"(batched {dom_batched:.4f}s vs modular {dom_modular:.4f}s)"
    )


def test_modular_unit_reduction_engaged(backend_runs):
    """The unit-row reduction must actually fire on this workload, and the
    residue kernel must certify everything without SVD rescue."""
    modular_run, _ = backend_runs["modular"]
    assert _stat_sum(modular_run, "total_rank_unit_members") > 0
    assert _stat_sum(modular_run, "total_rank_modular") > 0
    assert _stat_sum(modular_run, "total_rank_fallback") == 0


def test_cache_hits_across_subproblems(backend_runs):
    """Algorithm 3's redundancy must become memo hits — for both
    memo-composing backends."""
    for backend in ("batched", "modular"):
        run, _ = backend_runs[backend]
        hits = _stat_sum(run, "total_rank_cache_hits")
        tested = _stat_sum(run, "total_rank_tests")
        assert hits > tested // 2, backend  # majority served from the memo


def test_medium_registry_equivalence():
    """Backend equivalence at the medium registry scale (the small
    variants and toy run the same assertion in the tier-1 parity suite;
    yeast-II-medium is out of pure-Python benchmark reach)."""
    from repro.models import variants

    net = variants.yeast_1_medium()
    results = {
        be: compute_efms(net, options=AlgorithmOptions(rank_backend=be))
        for be in BACKENDS
    }
    for be in ("batched", "modular"):
        assert results["loop"].n_efms == results[be].n_efms, be
        assert results["loop"].same_modes_as(results[be]), be
