"""Unit tests for the algebraic rank test."""

import numpy as np
import pytest

from repro.core.ranktest import rank_test
from repro.core.state import ModeMatrix
from repro.errors import AlgorithmError

from tests.core.rank_oracle import rank_test_with


class TestRankTest:
    def test_accepts_nullity_one(self, toy_problem):
        # The r3-iteration candidate (0,2,0,1,0,0,0,-1): the paper computes
        # nullity 1 for its support submatrix.
        cand = ModeMatrix(np.array([[0, 2, 0, 1, 0, 0, 0, -1]], dtype=float))
        accept = rank_test(cand, toy_problem.n_perm, toy_problem.rank)
        assert accept[0]

    def test_rejects_oversized_support(self, toy_problem):
        # A dense nullspace vector (sum of kernel columns) has support 7 >
        # rank+1 = 5 -> summary rejection.
        dense = toy_problem.kernel.sum(axis=1)
        cand = ModeMatrix(dense[None, :])
        accept = rank_test(cand, toy_problem.n_perm, toy_problem.rank)
        assert not accept[0]

    def test_rejects_nullity_two(self):
        # N = one zero row over 3 reactions: any 2-support has nullity...
        # use N = [[1,-1,0]]: support {0,1} nullity 1 (accept); support
        # {0,1,2} has rank 1, nullity 2 (reject).
        n = np.array([[1.0, -1.0, 0.0]])
        good = ModeMatrix(np.array([[1.0, 1.0, 0.0]]))
        bad = ModeMatrix(np.array([[1.0, 1.0, 1.0]]))
        assert rank_test(good, n, 1)[0]
        assert not rank_test(bad, n, 2)[0]

    def test_empty_batch(self, toy_problem):
        cand = ModeMatrix.empty(toy_problem.q)
        assert rank_test(cand, toy_problem.n_perm, toy_problem.rank).shape == (0,)

    def test_width_mismatch(self, toy_problem):
        cand = ModeMatrix(np.ones((1, 3)))
        with pytest.raises(AlgorithmError):
            rank_test(cand, toy_problem.n_perm, toy_problem.rank)

    def test_exact_agrees_with_float(self, toy_problem):
        rng = np.random.default_rng(7)
        # random nullspace combinations as candidates
        coeffs = rng.integers(-3, 4, size=(10, toy_problem.n_free))
        cand = ModeMatrix(coeffs @ toy_problem.kernel.T)
        by_float = rank_test(cand, toy_problem.n_perm, toy_problem.rank)
        by_exact = rank_test_with(
            "exact", cand, toy_problem.n_perm, toy_problem.rank
        )
        assert np.array_equal(by_float, by_exact)

    def test_single_reaction_support_rejected(self):
        # A lone non-zero column cannot balance: rank 1, nullity 0.
        n = np.array([[1.0, -1.0]])
        cand = ModeMatrix(np.array([[1.0, 0.0]]))
        assert not rank_test(cand, n, 1)[0]
