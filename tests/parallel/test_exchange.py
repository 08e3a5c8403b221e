"""Algorithm 2's exchange: survivors deduplicated across ranks before the
rank test.

Each rank streams its cyclic share of an iteration's pairs untested, the
ranks allgather their survivors, keep the first copy of each support,
rank-test a strided share of that unique set each and allgather the
accept bits.  The EFM set is the serial one, and no support is
rank-tested twice, so the ranks test exactly the serial run's count.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.serial import nullspace_algorithm
from repro.efm.api import build_problem_with_split, compute_efms
from repro.models.generators import random_network
from repro.models.variants import yeast_2_small
from repro.network.compression import compress_network
from repro.parallel.combinatorial import combinatorial_parallel
from tests.conftest import assert_same_modes

BACKENDS = ("sequential", "process")


@pytest.fixture(scope="module")
def yeast2_problem():
    problem, _ = build_problem_with_split(compress_network(yeast_2_small()).reduced)
    return problem


@pytest.fixture(scope="module")
def serial_runs(yeast_problem, yeast2_problem):
    return {
        "yeast-I-small": (yeast_problem, nullspace_algorithm(yeast_problem)),
        "yeast-II-small": (yeast2_problem, nullspace_algorithm(yeast2_problem)),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_ranks", [2, 3, 4])
@pytest.mark.parametrize("network", ["yeast-I-small", "yeast-II-small"])
def test_yeast_same_efms_and_fewer_rank_tests(serial_runs, network, n_ranks, backend):
    problem, serial = serial_runs[network]
    run = combinatorial_parallel(problem, n_ranks, backend=backend)
    assert_same_modes(serial.efms_input_order(), run.result.efms_input_order())
    assert run.stats.total_candidates == serial.stats.total_candidates
    # Each unique survivor is tested on one rank only, and serial tests
    # each unique survivor once too: the ranks test exactly as many
    # candidates between them as serial does (no more, since the serial
    # stream stopped re-testing rejected duplicates).
    assert run.stats.total_rank_tests == serial.stats.total_rank_tests
    if network == "yeast-II-small":
        assert run.stats.total_rank_tests == 12836
    assert sum(it.n_accepted for it in run.stats.iterations) == sum(
        it.n_accepted for it in serial.stats.iterations
    )


network_params = st.fixed_dictionaries(
    {
        "n_metabolites": st.integers(3, 6),
        "n_reactions": st.integers(6, 10),
        "seed": st.integers(0, 10_000),
        "reversible_fraction": st.sampled_from([0.0, 0.3]),
    }
)
SETTINGS = dict(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(
    params=network_params,
    n_ranks=st.integers(2, 4),
    backend=st.sampled_from(BACKENDS),
)
@settings(**SETTINGS)
def test_random_networks_same_efms(params, n_ranks, backend):
    net = random_network(**params)
    serial = compute_efms(net)
    parallel = compute_efms(net, method="parallel", n_ranks=n_ranks, backend=backend)
    assert serial.same_modes_as(parallel)


@pytest.mark.parametrize("n_ranks", [2, 3])
def test_each_rank_tests_a_strided_share(yeast_problem, n_ranks):
    """Each rank tests a strided share of an iteration's unique survivors:
    in every iteration the shares differ by at most one candidate."""
    run = combinatorial_parallel(yeast_problem, n_ranks)
    for i, it in enumerate(run.stats.iterations):
        shares = [s.iterations[i].n_tested for s in run.rank_stats]
        assert sum(shares) == it.n_tested
        assert max(shares) - min(shares) <= 1
    assert run.stats.total_rank_tests > 0
