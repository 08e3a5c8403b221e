"""Property tests: every algorithm variant computes the same EFM set.

This is the reproduction's central equivalence claim — serial Algorithm 1,
combinatorial parallel Algorithm 2 (any rank count, any pair strategy),
the column-partitioned variant, and divide-and-conquer Algorithm 3 (any
valid partition) are different schedules of the same enumeration.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import AlgorithmOptions
from repro.efm.api import compute_efms
from repro.models.generators import random_network
from repro.network.compression import compress_network
from tests.core.adjacency_oracle import solve_with_adjacency_oracle
from tests.core.fraction_oracle import solve_with_fraction_oracle

SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

network_params = st.fixed_dictionaries(
    {
        "n_metabolites": st.integers(3, 6),
        "n_reactions": st.integers(6, 10),
        "seed": st.integers(0, 10_000),
        "reversible_fraction": st.sampled_from([0.0, 0.3]),
    }
)


@given(params=network_params, n_ranks=st.integers(1, 5))
@settings(**SETTINGS)
def test_parallel_equals_serial(params, n_ranks):
    net = random_network(**params)
    serial = compute_efms(net)
    parallel = compute_efms(net, method="parallel", n_ranks=n_ranks)
    assert serial.same_modes_as(parallel)


@given(params=network_params, n_ranks=st.integers(1, 4))
@settings(**SETTINGS)
def test_distributed_equals_serial(params, n_ranks):
    net = random_network(**params)
    serial = compute_efms(net)
    distributed = compute_efms(net, method="distributed", n_ranks=n_ranks)
    assert serial.same_modes_as(distributed)


@given(params=network_params, q_sub=st.integers(1, 3), data=st.data())
@settings(**SETTINGS)
def test_combined_equals_serial_any_partition(params, q_sub, data):
    net = random_network(**params)
    reduced = compress_network(net).reduced
    if reduced.n_reactions <= q_sub + 1:
        return
    names = data.draw(
        st.permutations(list(reduced.reaction_names)).map(lambda p: p[:q_sub])
    )
    serial = compute_efms(net)
    combined = compute_efms(net, method="combined", partition=tuple(names))
    assert serial.same_modes_as(combined)


@given(params=network_params)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_integer_run_equals_fraction_oracle(params):
    # The integer rows reach the same modes as the Fraction oracle, so the
    # emitted fluxes are identical to the last bit.
    net = random_network(**params)
    by_ints = compute_efms(net)
    by_fractions = solve_with_fraction_oracle(compute_efms, net)
    assert np.array_equal(by_ints.fluxes, by_fractions.fluxes)
    assert by_ints.meta["certified"] == by_ints.n_efms


@given(params=network_params, ordering=st.sampled_from(["dynamic", "paper"]))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bittree_equals_rank(params, ordering):
    # The rank run against the adjacency-test oracle on the fully split
    # network, folded back.
    net = random_network(**params)
    options = AlgorithmOptions(ordering=ordering)
    by_rank = compute_efms(net, options=options)
    by_tree = solve_with_adjacency_oracle(compute_efms, net, options=options)
    assert by_rank.same_modes_as(by_tree)


@given(params=network_params)
@settings(**SETTINGS)
def test_compression_preserves_efms(params):
    net = random_network(**params)
    compressed = compute_efms(net, compress=True)
    uncompressed = compute_efms(net, compress=False)
    assert compressed.same_modes_as(uncompressed)


@pytest.mark.parametrize(
    "method, n_ranks", [("serial", 1), ("parallel", 2), ("distributed", 2)]
)
def test_network_without_modes_gives_empty_result(method, n_ranks):
    # Falsifying example of test_compression_preserves_efms: compression
    # leaves no flux, and the uncompressed stoichiometry has full column
    # rank, so kernel construction reports NoModesError.
    net = random_network(
        n_metabolites=6, n_reactions=6, seed=475, reversible_fraction=0.3
    )
    compressed = compute_efms(net, compress=True)
    uncompressed = compute_efms(
        net, compress=False, method=method, n_ranks=n_ranks
    )
    assert uncompressed.n_efms == compressed.n_efms == 0
    assert compressed.same_modes_as(uncompressed)
