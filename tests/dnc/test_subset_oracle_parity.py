"""The derived subset path against the network-rebuild oracle.

:mod:`repro.dnc.combined` screens and prepares every divide-and-conquer
subset from the parent's integer kernel; :mod:`tests.dnc.subset_oracle`
rebuilds, compresses and eliminates each subset's network instead.  On
random partitions (``q_sub`` 1–5) of both yeast-small networks:

* the derived screen of a subset blocks at least what the oracle's
  blocks, and the derived lattice pass screens every subset the oracle's
  lattice pass screens;
* every reaction only the derived screen blocks is zero in every one of
  the oracle's EFMs of that subset;
* given the same deleted set, the derived problem equals the oracle's
  ``build_problem`` bit for bit (kernel, permutation, names, free count,
  first row, early stop, fallback);
* the subset's EFM set is the oracle's.

Small random networks, where reversible splits and the
dependent-partition fallback are frequent, repeat the same checks.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dnc.combined import (
    ParentKernel,
    combined_parallel,
    prepare_subset,
    screen_blocked,
    screen_subsets,
    solve_subset,
)
from repro.dnc.subsets import enumerate_subsets
from repro.efm.api import compute_efms
from repro.models.generators import random_network
from repro.models.registry import get_network
from repro.network.compression import compress_network
from repro.network.model import MetabolicNetwork
from tests.conftest import assert_same_modes
from tests.dnc import subset_oracle as oracle

NETWORKS = ("yeast-I-small", "yeast-II-small")


@functools.cache
def _reduced(name: str):
    return compress_network(get_network(name)).reduced


def assert_same_problem(prep, ref) -> None:
    got, want = prep.problem, ref.problem
    assert (got is None) == (want is None)
    if got is None:
        return
    assert got.kernel.dtype == want.kernel.dtype
    assert np.array_equal(got.kernel, want.kernel)
    assert np.array_equal(got.perm, want.perm)
    assert np.array_equal(got.n_perm, want.n_perm)
    assert np.array_equal(got.reversible, want.reversible)
    assert got.names == want.names
    assert (got.n_free, got.rank, got.first_row) == (
        want.n_free, want.rank, want.first_row,
    )
    assert (prep.stop, prep.fallback) == (ref.stop, ref.fallback)


def assert_matches_oracle(reduced, partition) -> None:
    specs = enumerate_subsets(partition)
    derived, _ = screen_subsets(reduced, specs)
    reference, _ = oracle.screen_subsets(reduced, specs)
    parent = ParentKernel(reduced)
    for spec, got, ref in zip(specs, derived, reference):
        label = spec.label()
        sub = reduced.without_reactions(spec.zero) if spec.zero else reduced
        assert screen_blocked(parent, spec.zero) >= (
            oracle.blocked_reactions(sub)
        ), label
        ref_screened = not ref.isdisjoint(spec.nonzero)
        screened = not got.isdisjoint(spec.nonzero)
        assert screened or not ref_screened, label
        if not screened:
            assert got >= ref, label

        ref_efms = (
            np.zeros((0, reduced.n_reactions))
            if ref_screened
            else oracle.solve_subset(reduced, spec, ref)
        )
        extra = [reduced.reaction_index(r) for r in sorted(got - ref)]
        assert not ref_efms[:, extra].any(), f"{label}: a blocked reaction carries flux"

        if not screened:
            assert_same_problem(
                prepare_subset(reduced, spec, blocked=got),
                oracle.prepare_subset(reduced, spec, got),
            )
        efms = solve_subset(reduced, spec, 1, blocked=got).efms
        assert_same_modes(efms, ref_efms)
        if got == ref:
            assert np.array_equal(efms, ref_efms), label


@pytest.mark.slow
@given(name=st.sampled_from(NETWORKS), data=st.data())
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_derived_subsets_match_the_rebuild_oracle(name, data):
    reduced = _reduced(name)
    q_sub = data.draw(st.integers(1, 5), label="q_sub")
    partition = tuple(
        data.draw(st.permutations(list(reduced.reaction_names)))[:q_sub]
    )
    assert_matches_oracle(reduced, partition)


@given(
    params=st.fixed_dictionaries(
        {
            "n_metabolites": st.integers(3, 6),
            "n_reactions": st.integers(6, 11),
            "seed": st.integers(0, 10_000),
            "reversible_fraction": st.sampled_from([0.3, 0.6, 0.9]),
        }
    ),
    data=st.data(),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_networks_match_the_rebuild_oracle(params, data):
    reduced = compress_network(random_network(**params)).reduced
    if reduced.n_reactions < 2:
        return
    q_sub = data.draw(st.integers(1, min(3, reduced.n_reactions - 1)))
    partition = tuple(
        data.draw(st.permutations(list(reduced.reaction_names)))[:q_sub]
    )
    assert_matches_oracle(reduced, partition)


def test_dependent_partition_fallback_matches_the_oracle():
    reduced = compress_network(
        random_network(5, 10, seed=8, reversible_fraction=0.3)
    ).reduced
    assert prepare_subset(reduced, enumerate_subsets(("J5", "J7"))[3]).fallback
    assert_matches_oracle(reduced, ("J5", "J7"))


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_python_integer_paths_match_the_oracle(seed):
    """Coefficients far past the int64 envelope put the parent kernel, the
    screen and the identity form on Python integers."""
    net = random_network(5, 10, seed=seed, reversible_fraction=0.5)
    big = Fraction(3**40)
    reactions = [
        dataclasses.replace(
            r, stoich={m: c * big for m, c in r.stoich.items()} if i % 3 == 0 else r.stoich
        )
        for i, r in enumerate(net.reactions)
    ]
    reduced = compress_network(
        MetabolicNetwork(net.name, net.metabolites, reactions)
    ).reduced
    assert ParentKernel(reduced).n_int.dtype == object
    names = reduced.reaction_names
    unsplit = compute_efms(reduced, compress=False).fluxes
    for partition in (names[:2], names[-2:]):
        assert_matches_oracle(reduced, tuple(partition))
        # The scheduled run ranks every subset on the parent's problem.
        run = combined_parallel(reduced, tuple(partition), 1)
        assert_same_modes(run.efms(), unsplit)
