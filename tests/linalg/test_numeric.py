"""Unit tests for tolerant floating linear algebra."""

import numpy as np
import pytest

from repro.config import NumericPolicy
from repro.errors import LinAlgError
from repro.linalg import numeric

from tests.core.rank_oracle import numeric_rank


class TestColumnNormalize:
    def test_unit_max_norm(self):
        cols = np.array([[2.0, -10.0], [1.0, 5.0]])
        out = numeric.column_normalize(cols)
        assert np.allclose(np.abs(out).max(axis=0), 1.0)

    def test_zero_column_untouched(self):
        cols = np.array([[0.0, 1.0], [0.0, 2.0]])
        out = numeric.column_normalize(cols)
        assert np.allclose(out[:, 0], 0.0)

    def test_in_place(self):
        cols = np.array([[4.0], [2.0]])
        out = numeric.column_normalize(cols, out=cols)
        assert out is cols and cols[0, 0] == 1.0

    def test_1d_rejected(self):
        with pytest.raises(LinAlgError):
            numeric.column_normalize(np.ones(3))


class TestSupportAndClean:
    def test_support_threshold_scales_with_column(self):
        # Threshold is relative to the column max: 1e-4 is "zero" next to
        # 1e6 (threshold 1e-3) but non-zero next to 1.0 (threshold 1e-9).
        policy = NumericPolicy(zero_tol=1e-9)
        cols = np.array([[1e6, 1.0], [1e-4, 1e-4]])
        sup = numeric.support_of(cols, policy)
        assert sup[0].all()
        assert not sup[1, 0]
        assert sup[1, 1]

    def test_support_exact(self):
        policy = NumericPolicy(zero_tol=1e-9)
        cols = np.array([[1.0, 0.5], [1e-12, 0.0]])
        sup = numeric.support_of(cols, policy)
        assert sup.tolist() == [[True, True], [False, False]]

    def test_clean_zeros_snaps(self):
        cols = np.array([[1.0], [1e-13]])
        numeric.clean_zeros(cols)
        assert cols[1, 0] == 0.0


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

    def test_rank_deficient_rows_ok(self):
        n = np.array([[1.0, -1.0], [2.0, -2.0], [3.0, -3.0]])
        kernel, perm = numeric.kernel_identity_form(n)
        assert kernel.shape == (2, 1)
        assert np.allclose(n[:, perm] @ kernel, 0.0)


class TestHelpers:
    def test_gcd_reduce_rows(self):
        m = np.array([[2, 4, 6], [0, 0, 0], [3, 5, 7]])
        out = numeric.gcd_reduce_rows(m)
        assert out[0].tolist() == [1, 2, 3]
        assert out[1].tolist() == [0, 0, 0]
        assert out[2].tolist() == [3, 5, 7]

    def test_columns_proportional(self):
        a = np.array([1.0, 0.0, -2.0])
        assert numeric.columns_proportional(a, a * 3.5)
        assert not numeric.columns_proportional(a, -a)  # negative scale
        assert not numeric.columns_proportional(a, np.array([1.0, 1.0, -2.0]))
