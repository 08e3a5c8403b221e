"""E-ABL4 — §IV.B memory scalability: replicated (Algorithm 2) vs. the
column-partitioned variant (the paper's future-work item 1): the same
Nullspace loop with the mode matrix sharded across the ranks
(``combinatorial_parallel(..., sharded=True)``).

"The combinatorial parallel Nullspace Algorithm has the disadvantage that
it requires the storage of the current nullspace matrix in the local
memory across all compute nodes at each step."  The column-partitioned
variant shards the mode matrix and gathers only the modes *active* in a
row with pairs, so its per-rank peak (the shard plus the gathered active
modes while they are held) falls as ranks are added while the
replicated algorithm's per-rank peak stays flat.  One shard is the whole
matrix, so the 1-rank column equals the replicated peak.

The effect needs a workload whose rows are mostly zero (true of genome-
scale networks and of the paper's Network II): the Network II benchmark
variant shows a ~2.5x per-rank reduction at 8 ranks.
"""

import pytest

from repro.bench.tables import Table
from repro.efm.api import build_problem_with_split
from repro.models.variants import yeast_2_small
from repro.network.compression import compress_network
from repro.parallel.combinatorial import combinatorial_parallel

RANKS = (1, 4, 8)


@pytest.fixture(scope="module")
def yeast2_problem():
    rec = compress_network(yeast_2_small())
    problem, split_rec = build_problem_with_split(rec.reduced)
    return rec, problem, split_rec


@pytest.fixture(scope="module")
def peaks(yeast2_problem):
    _, problem, _ = yeast2_problem
    # Replicated peak is rank-count invariant: measure once.
    rep_peak = combinatorial_parallel(problem, 1).stats.peak_mode_bytes
    dist = {
        p: combinatorial_parallel(problem, p, sharded=True).stats.peak_mode_bytes
        for p in RANKS
    }
    return rep_peak, dist


def test_memory_scaling_artifact(peaks, write_artifact):
    rep_peak, dist = peaks
    table = Table(
        title="E-ABL4 — peak per-rank mode storage (bytes), yeast-II-small",
        columns=["ranks", "replicated (Alg. 2)", "column-partitioned",
                 "reduction"],
    )
    for p in RANKS:
        table.add_row(p, rep_peak, dist[p], f"{rep_peak / dist[p]:.2f}x")
    write_artifact("memory_scaling.txt", table.render())


def test_partitioned_peak_shrinks_with_ranks(peaks):
    _, dist = peaks
    assert dist[8] < dist[4] < dist[1]


def test_partitioned_beats_replicated_at_scale(peaks):
    rep_peak, dist = peaks
    assert dist[8] < 0.6 * rep_peak


def test_distributed_benchmark(benchmark, yeast2_problem):
    _, problem, _ = yeast2_problem
    run = benchmark.pedantic(
        lambda: combinatorial_parallel(problem, 4, sharded=True),
        rounds=1,
        iterations=1,
    )
    assert run.result.n_efms > 0
