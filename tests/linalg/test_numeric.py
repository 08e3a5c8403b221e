"""Unit tests for the exact integer ``(I; R)`` kernel and the rank
oracle's SVD rank."""

import numpy as np
import pytest

from repro.errors import LinAlgError
from repro.linalg import numeric

from tests.core.rank_oracle import numeric_rank


class TestRank:
    """The SVD rank of the rank-test oracle (``tests/core/rank_oracle``)."""

    def test_full_rank(self):
        assert numeric_rank(np.eye(4)) == 4

    def test_rank_deficient(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert numeric_rank(a) == 1

    def test_zero_and_empty(self):
        assert numeric_rank(np.zeros((3, 3))) == 0
        assert numeric_rank(np.zeros((0, 3))) == 0

    def test_nullity(self):
        a = np.array([[1.0, 1.0, 0.0]])
        assert a.shape[1] - numeric_rank(a) == 2

    def test_scale_invariance(self):
        a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert numeric_rank(a) == numeric_rank(a * 1e8)


class TestKernelIdentityForm:
    def test_block_structure(self):
        n = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 1.0, -1.0, -2.0]])
        kernel, perm = numeric.kernel_identity_form(n)
        n_free = kernel.shape[1]
        assert n_free == 2
        # permuted stoichiometry annihilates the kernel
        assert np.allclose(n[:, perm] @ kernel, 0.0)
        # top block diagonal (scaled identity), off-diagonal zero
        top = kernel[:n_free]
        assert np.allclose(top - np.diag(np.diag(top)), 0.0)
        assert (np.diag(top) > 0).all()

    def test_perm_is_permutation(self):
        rng = np.random.default_rng(3)
        n = rng.integers(-2, 3, size=(4, 7)).astype(float)
        _, perm = numeric.kernel_identity_form(n)
        assert sorted(perm.tolist()) == list(range(7))

    def test_pivot_priority_respected(self):
        # Column 0 and 1 are identical; priority decides which is pivot.
        n = np.array([[1.0, 1.0, -1.0]])
        _, perm = numeric.kernel_identity_form(
            n, pivot_priority=np.array([1, -1, 0])
        )
        n_free = 2
        free = set(perm[:n_free].tolist())
        assert 1 not in free  # preferred pivot became the pivot

    def test_priority_length_mismatch(self):
        with pytest.raises(LinAlgError):
            numeric.kernel_identity_form(
                np.eye(2), pivot_priority=np.array([1])
            )

    def test_kernel_is_exact_int64(self):
        n = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 1.0, -1.0, -2.0]])
        kernel, perm = numeric.kernel_identity_form(n)
        assert kernel.dtype == np.int64
        assert not (n[:, perm].astype(np.int64) @ kernel).any()

    def test_kernel_of_non_integral_column_is_exact(self):
        # A half-integral column is read as a rational; the kernel is the
        # coprime integer basis of the float matrix's exact nullspace.
        n = np.array([[0.5, -1.0, 0.0], [0.0, 1.0, -1.5]])
        kernel, perm = numeric.kernel_identity_form(n)
        assert kernel.dtype == np.int64
        assert (2 * n[:, perm] @ kernel == 0).all()

    def test_no_metabolite_rows(self):
        kernel, perm = numeric.kernel_identity_form(np.zeros((0, 3)))
        assert kernel.dtype == np.int64
        assert kernel.tolist() == np.eye(3, dtype=int).tolist()
        assert perm.tolist() == [0, 1, 2]

    def test_rank_deficient_rows_ok(self):
        n = np.array([[1.0, -1.0], [2.0, -2.0], [3.0, -3.0]])
        kernel, perm = numeric.kernel_identity_form(n)
        assert kernel.shape == (2, 1)
        assert np.allclose(n[:, perm] @ kernel, 0.0)


class TestHelpers:
    def test_gcd_reduce_rows(self):
        # Mode rows are reduced through the column routine on the
        # transposed view, in place (repro.core.state).
        from repro.linalg.modular import gcd_reduce_columns

        m = np.array([[2, 4, 6], [0, 0, 0], [3, 5, 7], [-4, 0, 6]])
        out = gcd_reduce_columns(m.T)
        assert np.shares_memory(out, m)
        assert m[0].tolist() == [1, 2, 3]
        assert m[1].tolist() == [0, 0, 0]
        assert m[2].tolist() == [3, 5, 7]
        assert m[3].tolist() == [-2, 0, 3]
