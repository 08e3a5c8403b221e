"""E-TAB4 — Table IV: the combined algorithm under a memory cap
(Blue Gene/P model).

Paper (Network II, 256 BG/P nodes in SMP mode): Algorithm 2 alone was
"abandoned at the 59th iteration, two iterations before completion" for
memory; the 3-reaction split {R54r, R90r, R60r} left two subsets that
also exceeded memory and were manually refined with a 4th reaction
(R22r), after which all 49,764,544 EFMs completed in 2h57m.

Here: the constrained Network II variant against a calibrated per-rank
capacity.  Asserted shape: (1) Algorithm 2 OOMs in the final iterations,
(2) at least one subset of the initial split needs refinement, (3) the
scheduler's refinement completes the full EFM set under the same cap.
"""

import pytest

from repro.bench.runner import run_table4
from repro.efm.api import compute_efms
from repro.models.variants import yeast_2_small


@pytest.fixture(scope="module")
def table4():
    return run_table4("yeast-II-small", n_ranks=2, capacity_fraction=0.7)


def test_table4_artifact_and_story(table4, write_artifact):
    run = table4
    write_artifact("table4_yeast2_small.txt", run.table.render())

    # (1) Algorithm 2 alone dies near the end, like the paper's 59/61.
    assert run.alg2_oom_iteration is not None
    assert run.alg2_oom_iteration >= run.alg2_total_iterations - 3

    # (2) the initial split was insufficient -> the scheduler refined subsets.
    assert run.refinement_count >= 1

    # (3) the refined run completes the entire EFM set.
    reference = compute_efms(yeast_2_small())
    assert run.n_efms_total == reference.n_efms


def test_table4_end_to_end_benchmark(benchmark):
    result = benchmark.pedantic(
        lambda: run_table4("yeast-II-small", n_ranks=2, capacity_fraction=0.7),
        rounds=1,
        iterations=1,
    )
    assert result.n_efms_total > 0
