"""E-ABL3 — acceptance-test ablation: algebraic rank test [18] vs. the
bit-pattern (combinatorial adjacency) test of efmtool [19].

The paper's implementation uses the rank test; efmtool's headline
optimization is the combinatorial test.  Both compute identical EFM sets;
the combinatorial test trades per-candidate rank eliminations for per-pair bitset
scans (and requires a fully irreversible system — compute_efms splits
reversibles automatically for it).
"""

import time

import pytest

from repro.bench.tables import Table
from repro.config import AlgorithmOptions
from repro.efm.api import compute_efms
from repro.models.variants import yeast_1_small


@pytest.fixture(scope="module")
def runs():
    net = yeast_1_small()
    out = {}
    for acceptance in ("rank", "bittree"):
        options = AlgorithmOptions(acceptance=acceptance)
        t0 = time.perf_counter()
        result = compute_efms(net, options=options)
        out[acceptance] = (result, time.perf_counter() - t0)
    return out


def test_ranktest_ablation_artifact(runs, write_artifact):
    table = Table(
        title="E-ABL3 — acceptance test ablation (yeast-I-small)",
        columns=["acceptance", "# EFM", "total candidates", "host time (s)"],
    )
    for name, (result, dt) in runs.items():
        cand = result.stats.total_candidates if result.stats else 0
        table.add_row(name, result.n_efms, cand, dt)
    write_artifact("ablation_ranktest.txt", table.render())


def test_same_efm_set(runs):
    rank_result = runs["rank"][0]
    tree_result = runs["bittree"][0]
    assert rank_result.same_modes_as(tree_result)


def test_bittree_runs_zero_rank_tests(runs):
    """The combinatorial path must run no rank tests."""
    tree_result = runs["bittree"][0]
    assert tree_result.stats is not None
    assert tree_result.stats.total_rank_tests == 0


def test_rank_acceptance_benchmark(benchmark):
    net = yeast_1_small()
    result = benchmark.pedantic(
        lambda: compute_efms(net, options=AlgorithmOptions(acceptance="rank")),
        rounds=3, iterations=1,
    )
    assert result.n_efms == 530


def test_bittree_acceptance_benchmark(benchmark):
    net = yeast_1_small()
    result = benchmark.pedantic(
        lambda: compute_efms(net, options=AlgorithmOptions(acceptance="bittree")),
        rounds=3, iterations=1,
    )
    assert result.n_efms == 530
