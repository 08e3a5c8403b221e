"""Parity of the integer-elimination ``(I; R)`` kernel with the two-RREF
``Fraction`` oracle: ``(kernel, col_perm)`` must be identical, the kernel
entry for entry as exact integers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.kernel as core_kernel
from repro.efm.api import build_problem_with_split, compute_efms
from repro.linalg import modular
from repro.linalg.numeric import kernel_identity_form
from repro.models.registry import get_network
from repro.network import compression
from repro.network.compression import compress_network
from tests.linalg.kernel_oracle import oracle_kernel_identity_form


def assert_matches_oracle(n, pivot_priority=None):
    kernel, perm = kernel_identity_form(n, pivot_priority=pivot_priority)
    ref_kernel, ref_perm = oracle_kernel_identity_form(n, pivot_priority)
    assert np.array_equal(perm, ref_perm)
    assert perm.dtype == ref_perm.dtype
    assert kernel.shape == ref_kernel.shape
    assert kernel.tolist() == ref_kernel.tolist()


@st.composite
def stoichiometries(draw):
    """Integer and n/2, n/3, n/7 coefficients, optionally a dependent row
    and zeroed columns, with a random pivot priority (or none)."""
    m = draw(st.integers(1, 6))
    q = draw(st.integers(1, 9))
    nums = draw(hnp.arrays(np.int64, (m, q), elements=st.integers(-6, 6)))
    dens = draw(hnp.arrays(np.int64, (m, q), elements=st.sampled_from([1, 2, 3, 7])))
    a = nums / dens
    if draw(st.booleans()):
        c = draw(st.integers(-2, 2))
        a = np.vstack([a, a[0] + c * a[-1]])
    zero = draw(st.lists(st.integers(0, q - 1), max_size=2))
    a[:, zero] = 0.0
    prio = draw(
        st.none() | hnp.arrays(np.int8, q, elements=st.integers(-2, 1))
    )
    return a, prio


@given(case=stoichiometries())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_matches_fraction_oracle(case):
    a, prio = case
    assert_matches_oracle(a, prio)


@pytest.mark.parametrize(
    "n",
    [
        np.eye(3),  # empty nullspace
        np.zeros((2, 4)),  # every column free
        np.array([[1.0, 0.0, -1.0], [2.0, 0.0, -2.0]]),  # zero column, dependent row
        np.array([[0.5, 1 / 3, -1 / 7, 2.0]]),
        np.array([[0.1, 1.0, -2.0], [np.pi, 3.0, 1.0]]),  # exact binary fractions
    ],
)
def test_matches_fraction_oracle_on_edge_cases(n):
    assert_matches_oracle(n)
    assert_matches_oracle(n, np.arange(n.shape[1])[::-1])


def test_int64_overflow_reruns_on_python_ints(monkeypatch):
    dtypes = []
    real = modular.int_kernel

    def spy(n_int):
        dtypes.append(n_int.dtype)
        return real(n_int)

    monkeypatch.setattr(modular, "int_kernel", spy)
    rng = np.random.default_rng(0)
    n = rng.integers(-(2**30), 2**30, size=(5, 10)).astype(np.float64)
    assert_matches_oracle(n, rng.integers(-2, 2, size=10))
    assert dtypes == [np.int64, object]


def test_yeast_kernels_and_every_dnc_subset_match_oracle(monkeypatch):
    """Every kernel a yeast D&C run builds matches the oracle: the problem
    builds (through ``repro.core.kernel``) and the blocked-reaction
    screen's (through ``repro.network.compression``)."""
    calls = {"problem": [], "screen": []}

    def spy(module, kind):
        real = module.kernel_identity_form

        def record(n, **kwargs):
            calls[kind].append((n.copy(), kwargs.get("pivot_priority")))
            return real(n, **kwargs)

        monkeypatch.setattr(module, "kernel_identity_form", record)

    spy(core_kernel, "problem")
    spy(compression, "screen")
    result = compute_efms(
        get_network("yeast-I-small"), method="combined", partition=5,
        executor="inline",
    )
    assert result.n_efms == 530
    # Partition selection (2), then one build per subset the screen lets
    # through (8 of 32) plus 4 reversible-split retries.  The screen runs
    # once over the subset lattice: 11 of the 32 subsets need their own
    # blocked-reaction pass (the other 21 inherit a blocked partition
    # reaction from a smaller zero set), one kernel per round, and 3 of
    # those passes take a second round after their first kernel blocks a
    # reaction.
    assert len(calls["problem"]) == 2 + 8 + 4
    assert len(calls["screen"]) == 11 + 3
    build_problem_with_split(compress_network(get_network("yeast-II-small")).reduced)
    for n, prio in calls["problem"] + calls["screen"]:
        assert_matches_oracle(n, prio)
