"""The blocked-reaction screen of the divide-and-conquer subsets.

:func:`repro.dnc.combined.screen_subsets` runs
:func:`repro.dnc.combined.screen_blocked` over the partition's subset
lattice before any problem is built (a direct
:func:`~repro.dnc.combined.prepare_subset` call screens its one subset
in place): a blocked non-zero partition reaction proves the subset
empty, and the other blocked reactions are deleted.  The screen is only
sound if

* every reaction it reports is zero in every EFM of the subnetwork;
* every subset it rejects enumerates to no EFMs with the screen off;
* the EFM union, subset by subset, is the same with the screen on and off.

The lattice pass must also agree with screening every subset on its own:
it rejects at least what the per-subset screen rejects, and hands every
surviving subset the same blocked set.
"""

from __future__ import annotations

import contextlib
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.dnc.combined as combined
from repro.config import AlgorithmOptions
from repro.dnc.combined import combined_parallel, prepare_subset, screen_subsets
from repro.dnc.selection import select_partition_reactions
from repro.dnc.subsets import SubsetSpec, enumerate_subsets
from repro.efm.api import compute_efms
from repro.models.generators import random_network
from repro.models.registry import get_network
from repro.network.compression import compress_network
from tests.conftest import assert_same_modes

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

network_params = st.fixed_dictionaries(
    {
        "n_metabolites": st.integers(3, 6),
        "n_reactions": st.integers(6, 11),
        "seed": st.integers(0, 10_000),
        "reversible_fraction": st.sampled_from([0.0, 0.3, 0.6]),
    }
)


@contextlib.contextmanager
def screen_off():
    with mock.patch.object(
        combined, "screen_blocked", lambda parent, gone: frozenset()
    ):
        yield


def screen_alone(reduced, spec) -> frozenset[str]:
    """The screen of one subset, without the lattice."""
    return combined.screen_blocked(combined.parent_kernel(reduced), spec.zero)


def assert_screen_sound(reduced, partition) -> int:
    """Check all three soundness properties on one partition; returns the
    number of subsets the screen rejected."""
    on = combined_parallel(reduced, partition, 1)
    with screen_off():
        off = combined_parallel(reduced, partition, 1)
    assert off.n_screened == 0
    for s_on, s_off in zip(on.subsets, off.subsets):
        if s_on.screened:
            assert s_on.n_efms == 0
            assert s_off.n_efms == 0, f"screen rejected {s_on.spec.label()}"
        assert_same_modes(s_on.efms, s_off.efms)

    for spec in enumerate_subsets(partition):
        sub = reduced.without_reactions(spec.zero) if spec.zero else reduced
        blocked = screen_alone(reduced, spec)
        if not blocked:
            continue
        efms = compute_efms(sub)
        cols = [sub.reaction_index(name) for name in sorted(blocked)]
        assert not np.any(efms.fluxes[:, cols]), (
            f"{spec.label()}: a reaction reported blocked carries flux"
        )
    return on.n_screened


def lattice_rejects(reduced, partition) -> list[bool]:
    """Check :func:`screen_subsets` against screening each subset on its
    own; returns which subsets the lattice pass rejected."""
    specs = enumerate_subsets(partition)
    lattice, _ = screen_subsets(reduced, specs)
    rejected = []
    for spec, got in zip(specs, lattice):
        assert got.isdisjoint(spec.zero)
        alone = screen_alone(reduced, spec)
        rejected.append(not got.isdisjoint(spec.nonzero))
        if not rejected[-1]:
            assert alone.isdisjoint(spec.nonzero), (
                f"only the per-subset screen rejected {spec.label()}"
            )
            assert got == alone, spec.label()
    return rejected


def draw_partition(reduced, data) -> tuple[str, ...]:
    size = data.draw(st.integers(1, min(3, reduced.n_reactions - 1)))
    return tuple(data.draw(st.permutations(list(reduced.reaction_names)))[:size])


@given(params=network_params, data=st.data())
@settings(**SETTINGS)
def test_screen_is_sound_on_random_partitions(params, data):
    reduced = compress_network(random_network(**params)).reduced
    if reduced.n_reactions < 2:
        return
    assert_screen_sound(reduced, draw_partition(reduced, data))


@given(params=network_params, data=st.data())
@settings(**SETTINGS)
def test_lattice_screen_matches_per_subset_screen(params, data):
    reduced = compress_network(random_network(**params)).reduced
    if reduced.n_reactions < 2:
        return
    partition = draw_partition(reduced, data)
    rejected = lattice_rejects(reduced, partition)
    with screen_off():
        off = combined_parallel(reduced, partition, 1)
    for reject, s_off in zip(rejected, off.subsets):
        if reject:
            assert s_off.n_efms == 0, f"lattice rejected {s_off.spec.label()}"


@pytest.mark.parametrize(
    "name, q_sub, screened, computed",
    [
        ("yeast-I-small", 5, 24, 11),
        ("yeast-II-small", 3, 4, 6),
        ("yeast-II-small", 5, 16, 18),
    ],
)
def test_lattice_screen_counts_on_yeast(name, q_sub, screened, computed):
    reduced = compress_network(get_network(name)).reduced
    partition = tuple(select_partition_reactions(reduced, q_sub, method="tail"))
    calls = []

    screen = combined.screen_blocked

    def counted(parent, gone):
        calls.append(gone)
        return screen(parent, gone)

    with mock.patch.object(combined, "screen_blocked", counted):
        _, n_computed = screen_subsets(reduced, enumerate_subsets(partition))
    assert n_computed == len(calls) == computed
    assert sum(lattice_rejects(reduced, partition)) == screened


def test_singleton_only_subnetwork_is_not_blocked():
    """``~X0 X1`` compresses to nothing but one singleton EFM through
    ``X1``: the singleton's reactions carry flux and must not be blocked."""
    reduced = compress_network(
        random_network(5, 9, seed=1, reversible_fraction=0.3)
    ).reduced
    spec = SubsetSpec(subset_id=2, partition=("X0", "X1"))
    assert spec.label() == "~X0 X1"
    sub = reduced.without_reactions(spec.zero)
    rec = compress_network(sub)
    assert rec.reduced.n_reactions == 0 and len(rec.singletons) == 1
    assert screen_alone(reduced, spec) == frozenset(rec.blocked)
    assert "X1" not in screen_alone(reduced, spec)

    prep = prepare_subset(reduced, spec)
    assert prep.problem is not None and not prep.screened
    run = combined_parallel(reduced, spec.partition, 1)
    assert run.subsets[2].n_efms == 1
    assert_screen_sound(reduced, spec.partition)


def test_yeast_1_small_screens_24_of_32_subsets(caplog):
    reduced = compress_network(get_network("yeast-I-small")).reduced
    partition = ("R22r", "R32r", "R81r", "R96r", "R102r")
    # The candidate bar below is a fact about dynamic row order.
    opts = AlgorithmOptions(ordering="dynamic")
    with caplog.at_level(logging.DEBUG, logger=combined.__name__):
        on = combined_parallel(reduced, partition, 1, options=opts)
    with screen_off():
        off = combined_parallel(reduced, partition, 1, options=opts)
    assert on.n_screened == 24
    assert on.n_efms == off.n_efms == 530
    for s_on, s_off in zip(on.subsets, off.subsets):
        assert s_on.n_efms == s_off.n_efms
        assert_same_modes(s_on.efms, s_off.efms)
        if s_on.screened:
            assert s_off.n_efms == 0
    # One DEBUG line per screened subset, naming the blocked reaction(s).
    lines = [
        r.getMessage()
        for r in caplog.records
        if r.name == combined.__name__ and "screened empty" in r.getMessage()
    ]
    assert len(lines) == 24
    assert any("R81r, R96r blocked" in line for line in lines)
    # The screened subsets generate no candidates, so the split run now
    # beats the unsplit one (15,739) as in the paper's Table III.
    assert on.total_candidates < 15_739


def test_subset_retries_are_logged(caplog):
    """Reversible-split retries and the dependent-partition fallback
    each leave one DEBUG line naming the subset."""
    reduced = compress_network(get_network("yeast-I-small")).reduced
    partition = ("R22r", "R32r", "R81r", "R96r", "R102r")
    with caplog.at_level(logging.DEBUG, logger=combined.__name__):
        combined_parallel(reduced, partition, 1)
    splits = [
        r.getMessage()
        for r in caplog.records
        if r.name == combined.__name__ and "splitting reversible" in r.getMessage()
    ]
    # Four of the eight surviving subsets split R74r, once each.
    assert len(splits) == 4
    assert all(line.endswith("splitting reversible R74r") for line in splits)

    caplog.clear()
    # J5 and J7 are reversible and linearly dependent once both carry
    # flux: subset ``J5 J7`` falls back to full enumeration.
    reduced = compress_network(
        random_network(5, 10, seed=8, reversible_fraction=0.3)
    ).reduced
    with caplog.at_level(logging.DEBUG, logger=combined.__name__):
        prep = prepare_subset(reduced, SubsetSpec(3, ("J5", "J7")))
    assert prep.fallback and prep.stop == prep.problem.q
    lines = [r.getMessage() for r in caplog.records if r.name == combined.__name__]
    assert lines == [
        "subset J5 J7: partition reactions are linearly dependent; "
        "full enumeration and filtering"
    ]
