"""E-TAB2 — Table II: combinatorial parallel Algorithm 2 strong scaling.

Paper (Network I, Calhoun, 1→64 cores): generation time falls near-
linearly with cores (2744.76 s → 46.83 s), rank-test time likewise,
communicate and merge grow slowly, candidate count (159,599,700,951) and
EFM count (1,515,314) are invariant.

Here: the constrained Network I variant runs at 1→16 simulated ranks; the
measured candidate counts feed the calibrated Calhoun model.  Asserted
shape: candidate/EFM invariance, monotone modeled generation time, growing
communicate time.
"""

import pytest

from repro.bench.runner import run_table2

CORES = (1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def table2():
    return run_table2("yeast-I-small", CORES)


def test_table2_artifact_and_shape(table2, benchmark, write_artifact):
    table, runs = table2
    write_artifact("table2_yeast1_small.txt", table.render())

    # Work counters are schedule-invariant.
    assert len({r.total_candidates for r in runs}) == 1
    assert len({r.n_efms for r in runs}) == 1

    # Modeled generation time scales down ~linearly (paper's headline row).
    gen = [r.modeled.gen_cand for r in runs]
    assert all(gen[i + 1] <= gen[i] for i in range(len(gen) - 1))
    assert gen[0] / gen[-1] == pytest.approx(CORES[-1], rel=0.35)

    # Communicate grows with rank count; absent on one rank.
    comm = [r.modeled.communicate for r in runs]
    assert comm[0] == 0.0
    assert comm[-1] > comm[1] > 0.0

    # Benchmark the 4-rank end-to-end run (host time).
    from repro.parallel.combinatorial import combinatorial_parallel
    from repro.efm.api import build_problem_with_split
    from repro.models.variants import yeast_1_small
    from repro.network.compression import compress_network

    rec = compress_network(yeast_1_small())
    problem, _ = build_problem_with_split(rec.reduced)
    result = benchmark.pedantic(
        lambda: combinatorial_parallel(problem, 4), rounds=3, iterations=1
    )
    # Raw split-space mode count >= folded EFM count (2-cycle artifacts).
    assert result.result.n_efms >= runs[0].n_efms


def test_table2_process_backend_equivalent(yeast1_small_problem):
    """The scaling table's sequential engine and the real process backend
    produce identical EFM sets."""
    import numpy as np

    from repro.parallel.combinatorial import combinatorial_parallel

    _, problem, _ = yeast1_small_problem
    seq = combinatorial_parallel(problem, 4, backend="sequential")
    proc = combinatorial_parallel(problem, 4, backend="process")
    assert np.array_equal(
        np.sort(seq.result.modes.supports.words, axis=0),
        np.sort(proc.result.modes.supports.words, axis=0),
    )
