"""Parity of the integer-elimination ``(I; R)`` kernel with the two-RREF
``Fraction`` oracle: ``(kernel, col_perm)`` must be identical, the kernel
entry for entry as exact integers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.kernel as core_kernel
import repro.dnc.combined as combined
from repro.efm.api import build_problem_with_split, compute_efms
from repro.linalg import modular
from repro.linalg.numeric import identity_form_from_basis, kernel_identity_form
from repro.models.registry import get_network
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


@given(case=stoichiometries(), data=st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_identity_form_from_any_basis_matches_fraction_oracle(case, data):
    """Read off any integer basis of ``ker n`` — the program's own, its
    columns mixed by a random nonsingular integer matrix — the ``(I; R)``
    form is the oracle's."""
    a, prio = case
    kernel, perm = kernel_identity_form(a, pivot_priority=prio)
    d = kernel.shape[1]
    basis = np.empty_like(kernel)
    basis[perm] = kernel
    mix = data.draw(hnp.arrays(np.int64, (d, d), elements=st.integers(-3, 3)))
    if d and round(np.linalg.det(mix)) != 0:
        basis = basis @ mix
    got, got_perm = identity_form_from_basis(basis, pivot_priority=prio)
    ref_kernel, ref_perm = oracle_kernel_identity_form(a, prio)
    assert np.array_equal(got_perm, ref_perm)
    assert got.shape == ref_kernel.shape
    assert got.tolist() == ref_kernel.tolist()


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
    """Every kernel a yeast D&C run builds matches the oracle: the ones
    eliminated from a stoichiometry, and the subsets' ones read off a basis
    derived from the parent's kernel.  A derived form is compared, as the
    run returned it, with the oracle's form of a stoichiometry whose kernel
    that basis spans (the basis' annihilator).  A reversible-split retry
    reads its form off the unsplit one; that form must equal the one read
    off the split basis, which is compared with the oracle like the rest."""
    eliminated, derived, read_off = [], [], []

    def spy_eliminated(a, **kwargs):
        eliminated.append((np.copy(a), kwargs.get("pivot_priority")))
        return real_eliminated(a, **kwargs)

    def spy_derived(basis, **kwargs):
        out = real_derived(basis, **kwargs)
        annihilator = modular.int_kernel(basis.T.astype(object))[1].T.astype(float)
        derived.append((annihilator, kwargs.get("pivot_priority"), out))
        return out

    def spy_problem(*args, **kwargs):
        out = real_problem(*args, **kwargs)
        if kwargs.get("identity_form") is not None:
            ref = real_problem(*args, **{**kwargs, "identity_form": None})
            read_off.append((out, ref))
        return out

    real_eliminated = core_kernel.kernel_identity_form
    real_derived = core_kernel.identity_form_from_basis
    real_problem = combined.problem_from_matrices
    monkeypatch.setattr(core_kernel, "kernel_identity_form", spy_eliminated)
    monkeypatch.setattr(core_kernel, "identity_form_from_basis", spy_derived)
    monkeypatch.setattr(combined, "problem_from_matrices", spy_problem)
    result = compute_efms(
        get_network("yeast-I-small"), method="combined", partition=5,
        executor="inline",
    )
    assert result.n_efms == 530
    # Partition selection eliminates twice (one reversible split); each
    # subset the screen lets through (8 of 32) reads its kernel off the
    # derived basis, and 4 reversible-split retries read theirs off the
    # unsplit form (their split bases' forms, read off here as reference,
    # are the other 4 entries of ``derived``).  The screen builds no
    # kernel.
    assert len(eliminated) == 2
    assert len(read_off) == 4
    assert len(derived) == 8 + 4
    for out, ref in read_off:
        assert np.array_equal(out.perm, ref.perm)
        assert out.kernel.dtype == ref.kernel.dtype
        assert out.kernel.tolist() == ref.kernel.tolist()
    for annihilator, prio, (kernel, perm) in derived:
        ref_kernel, ref_perm = oracle_kernel_identity_form(annihilator, prio)
        assert np.array_equal(perm, ref_perm)
        assert kernel.shape == ref_kernel.shape
        assert kernel.tolist() == ref_kernel.tolist()
    build_problem_with_split(compress_network(get_network("yeast-II-small")).reduced)
    for n, prio in eliminated:
        assert_matches_oracle(n, prio)
