"""Adversarial units for the modular residue-field rank engine.

Each class targets one soundness hazard: lossy integerization,
fraction-free kernel overflow, prime-divisible entries defeating a single
residue field, non-rational inputs, and the unit-row reduction.  Ranks
are checked against exact rational elimination.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core.stats import IterationStats
from repro.linalg import modular
from repro.linalg.modular import (
    ModularProblem,
    _kernel_mod_p,
    _kernel_nullities,
    _padded_complements,
    _unit_reduced_ranks,
    bareiss_ranks,
    int_kernel,
    integer_columns,
    modular_ranks,
    problem_for,
)

from tests.core.rank_oracle import loop_ranks


def _random_supports(q: int, n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    mask = rng.random(size=(q, n)) < 0.45
    mask[:2, mask.sum(axis=0) == 0] = True  # no empty supports
    sizes = mask.sum(axis=0).astype(np.int64)
    return mask, sizes


def _reference_ranks(n_perm, mask, sizes):
    """Exact ranks: one rational elimination per candidate."""
    return loop_ranks(n_perm, mask, sizes, exact=True)


class TestIntegerize:
    """:func:`integer_columns`, the one reading of a float stoichiometry
    shared by the initial kernel and the rank engine."""

    def test_integer_matrix_passes_through(self):
        a = np.array([[1.0, -3.0], [0.0, 7.0]])
        out, scales = integer_columns(a)
        assert out.dtype == np.int64 and scales == [1, 1]
        assert np.array_equal(out, [[1, -3], [0, 7]])

    def test_rational_columns_scaled_by_lcm(self):
        a = np.array([[0.5, 1 / 3], [1.5, 2 / 3]])
        out, scales = integer_columns(a)
        # Column scaling: each column times its denominator lcm.
        assert np.array_equal(out, [[1, 1], [3, 2]])
        assert scales == [2, 3]

    def test_scaling_preserves_subset_ranks(self):
        rng = np.random.default_rng(3)
        a = rng.integers(-4, 5, size=(5, 9)).astype(float) / 6.0
        out, _ = integer_columns(a)
        for _ in range(20):
            cols = np.flatnonzero(rng.random(9) < 0.5)
            if cols.size == 0:
                continue
            assert np.linalg.matrix_rank(
                a[:, cols]
            ) == np.linalg.matrix_rank(out[:, cols].astype(float))

    def test_non_rational_entries_read_exactly(self):
        # π has no small denominator: the column is read as the exact
        # binary value of its floats and comes back as Python ints.
        a = np.array([[1.0, np.pi], [0.0, 1.0]])
        out, scales = integer_columns(a)
        assert out.dtype == object
        assert Fraction(out[0, 1], scales[1]) == Fraction(np.pi)
        assert Fraction(out[1, 1], scales[1]) == 1

    def test_overflowing_rescale_returns_python_ints(self):
        # 1/997 forces a column scale of 997; the 2^30-sized entry sharing
        # the column then leaves the int64 guard after rescaling.
        a = np.array([[1 / 997.0], [2.0**30]])
        out, scales = integer_columns(a)
        assert out.dtype == object and scales == [997]
        assert out[:, 0].tolist() == [1, 997 * 2**30]


class TestIntKernel:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_nullspace_of_random_integer_matrices(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(-5, 6, size=(4, 9))
        pivots, B = int_kernel(n)
        rank = len(pivots)
        assert rank == np.linalg.matrix_rank(n.astype(float))
        assert B.shape == (9, 9 - rank)
        assert not np.any(n @ B)  # exact annihilation
        assert np.linalg.matrix_rank(B.astype(float)) == B.shape[1]

    def test_rank_deficient_input(self):
        n = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 0]])
        pivots, B = int_kernel(n)
        assert pivots == [0]
        assert B.shape == (3, 2)
        assert not np.any(n @ B)

    def test_columns_gcd_reduced(self):
        n = np.array([[2, 0, -4], [0, 2, 2]])
        _, B = int_kernel(n)
        for j in range(B.shape[1]):
            assert np.gcd.reduce(np.abs(B[:, j])) == 1

    def test_huge_entries_raise_overflow(self):
        rng = np.random.default_rng(0)
        n = rng.integers(-(2**30), 2**30, size=(5, 10))
        with pytest.raises(OverflowError):
            int_kernel(n)

    def test_python_int_input_matches_int64_and_is_unbounded(self):
        rng = np.random.default_rng(1)
        n = rng.integers(-5, 6, size=(4, 9))
        pivots, B = int_kernel(n)
        pivots_obj, B_obj = int_kernel(n.astype(object))
        assert pivots_obj == pivots
        assert B_obj.dtype == object
        assert np.array_equal(B_obj.astype(np.int64), B)
        huge = rng.integers(-(2**30), 2**30, size=(5, 10)).astype(object)
        pivots, B = int_kernel(huge)
        assert len(pivots) == 5 and B.shape == (10, 5)
        assert not np.any(huge @ B)


class TestKernelModP:
    @pytest.mark.parametrize("seed", range(4))
    def test_basis_annihilates_mod_p(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(-5, 6, size=(4, 9))
        p = modular.PRIMES[0]
        B = _kernel_mod_p(n, p)
        assert B.shape == (9 - np.linalg.matrix_rank(n.astype(float)), 9)
        assert not np.any((n @ B.T) % p)

    def test_python_int_entries_reduced_before_the_int64_cast(self):
        # Entries past int64: reducing mod p on the exact integers keeps
        # the basis annihilating the true matrix mod p.
        p = modular.PRIMES[0]
        n = np.array([[2**70 + 3, 1, 0], [5, 2**65, 1]], dtype=object)
        B = _kernel_mod_p(n, p)
        assert B.shape == (1, 3)
        assert not np.any((n @ B.T.astype(object)) % p)


class TestBareissRanks:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_numpy_on_random_stacks(self, seed):
        rng = np.random.default_rng(seed)
        stack = rng.integers(-4, 5, size=(12, 5, 7)).astype(np.float64)
        got = bareiss_ranks(stack)
        want = [np.linalg.matrix_rank(stack[i]) for i in range(12)]
        assert got.tolist() == want

    def test_rank_deficient_and_duplicate_columns(self):
        base = np.array([[1, 2, 1, 2], [3, 1, 3, 1], [0, 0, 0, 0]], dtype=float)
        stack = np.stack([base, np.zeros_like(base), np.eye(3, 4)])
        assert bareiss_ranks(stack).tolist() == [2, 0, 3]

    def test_guard_breach_raises(self):
        stack = np.full((1, 2, 2), 1e8)
        with pytest.raises(OverflowError):
            bareiss_ranks(stack)


class TestPaddedComplements:
    def test_descending_members_and_pad_repeats_smallest(self):
        mask_t = np.array(
            [[True, True, False, False, True], [True, True, True, True, False]]
        )
        sizes = mask_t.sum(axis=1).astype(np.int64)
        idx_pad, counts = _padded_complements(
            mask_t, np.arange(2), sizes
        )
        assert counts.tolist() == [2, 1]
        assert idx_pad[0].tolist() == [3, 2]
        assert idx_pad[1].tolist() == [4, 4]  # padded with its only member


class _BasisProblem:
    """The exact-arm inputs of a :class:`ModularProblem`, taken from a
    hand-built ``(q, d)`` integer basis instead of a stoichiometry."""

    def __init__(self, B):
        self.q, self.d = B.shape
        self.bt = B.T.astype(np.float64)
        self.bt_sym = modular.symmetric_panel(self.bt)
        nonzero = B != 0
        self.unit = nonzero.sum(axis=1) == 1
        self.coord = nonzero.argmax(axis=1)


def _random_identity_form_basis(rng, q, d):
    """A ``(q, d)`` basis in ``(I; R)`` form up to row order: ``d`` free
    rows ``c_k e_k`` with scaled units, dense-ish small-integer rows, plus
    extra unit rows (sharing coordinates with the free rows) and zero
    rows."""
    B = rng.integers(-3, 4, size=(q, d)) * (rng.random((q, d)) < 0.6)
    perm = rng.permutation(q)
    free, extra_unit, zero = perm[:d], perm[d : d + 2], perm[d + 2 : d + 4]
    B[free] = 0
    B[free, np.arange(d)] = rng.choice([-3, -2, -1, 1, 2, 3], size=d)
    B[extra_unit] = 0
    B[extra_unit, rng.integers(0, d, size=2)] = rng.choice([-2, 1, 5], size=2)
    B[zero] = 0
    return B


def _dense_ranks(B, comp):
    return [
        np.linalg.matrix_rank(B[row].astype(float)) if row.any() else 0
        for row in comp
    ]


class TestUnitRowReduction:
    """``rank(B[S̄]) = |K| + rank(B[R, ~K])`` against dense ranks."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_rank_on_random_bases(self, seed):
        rng = np.random.default_rng(seed)
        B = _random_identity_form_basis(rng, 14, 6)
        comp = rng.random((80, 14)) < rng.random((80, 1))
        got = _unit_reduced_ranks(_BasisProblem(B), comp)
        assert got.tolist() == _dense_ranks(B, comp)

    def test_empty_and_all_unit_complements_skip_elimination(self, monkeypatch):
        B = np.array([[2, 0, 0], [0, -3, 0], [1, 1, 1], [0, 0, 5]])
        comp = np.array(
            [[False] * 4, [True, True, False, True], [True, False, False, False]]
        )

        def no_elimination(stack):
            raise AssertionError("no elimination step expected")

        monkeypatch.setattr(modular, "bareiss_ranks", no_elimination)
        stats = IterationStats(position=0, reaction="r", reversible=False)
        got = _unit_reduced_ranks(_BasisProblem(B), comp, stats=stats)
        assert got.tolist() == [0, 3, 1] == _dense_ranks(B, comp)
        assert stats.n_rank_unit_members == 4

    def test_unit_members_sharing_a_coordinate_count_once(self):
        B = np.array([[2, 0, 0], [-3, 0, 0], [1, 4, 0], [0, 1, 1]])
        comp = np.array(
            [[True, True, False, False], [True, True, True, False],
             [True, True, True, True]]
        )
        got = _unit_reduced_ranks(_BasisProblem(B), comp)
        assert got.tolist() == [1, 2, 3] == _dense_ranks(B, comp)

    def test_zero_rows_add_nothing(self):
        B = np.array([[0, 0, 0], [0, 2, 0], [0, 0, 0], [1, 1, 0]])
        comp = np.array(
            [[True, False, False, False], [True, False, True, False],
             [True, True, True, False], [True, False, True, True]]
        )
        got = _unit_reduced_ranks(_BasisProblem(B), comp)
        assert got.tolist() == [0, 0, 1, 1] == _dense_ranks(B, comp)

    @pytest.mark.parametrize("seed", range(3))
    def test_prepared_problem_matches_dense_rank(self, seed):
        rng = np.random.default_rng(seed)
        # Sparse {-1, 0, 1} entries keep the basis inside the float64
        # guard, so the exact arm answers every complement.
        n_int = rng.integers(-1, 2, size=(5, 13)) * (rng.random((5, 13)) < 0.5)
        _, B = int_kernel(n_int)
        prob = ModularProblem(n_int.astype(float))
        assert prob.unit.sum() >= prob.d  # every free row is a unit row
        comp = rng.random((60, 13)) < 0.4
        got = _unit_reduced_ranks(prob, comp)
        assert got.tolist() == _dense_ranks(B, comp)


class TestPrimeEscalation:
    """Hand-built problems whose first residue field lies about the rank."""

    class _FakeProb:
        """Basis-less problem stub: residue panels supplied directly."""

        def __init__(self, d, q, panels, primes):
            self.d, self.q = d, q
            self.bt = None
            self._panels = panels
            self.primes = primes

        def residue_basis(self, p):
            return self._panels.get(p)

    def test_second_prime_rescues_divisible_entry(self):
        p1, p2 = modular.PRIMES[0], modular.PRIMES[1]
        # True panel has a member column equal to (p1, 0): rank 1 over Q
        # and over F_p2, but rank 0 over F_p1 — nullity 2 vs true 1.
        bt = np.array([[1, p1, 0, 1], [0, 0, 1, 1]], dtype=np.int64)
        prob = self._FakeProb(
            2, 4, {p1: bt % p1, p2: bt % p2}, (p1, p2)
        )
        idx_pad = np.array([[1, 1]])  # complement = {1}, padded
        null, unresolved = _kernel_nullities(prob, idx_pad)
        assert null.tolist() == [1]  # min over the two primes
        assert not unresolved.any()

    def test_disagreeing_primes_settled_exactly(self, monkeypatch):
        p1, p2 = modular.PRIMES[0], modular.PRIMES[1]
        # Member rows (p1*p2, 0, 0) and (p2, 0, 0): rank 1 over F_p1 but
        # rank 0 over F_p2 — both nullities >= 2 and unequal.
        bt = np.array(
            [[p1 * p2, p2, 0], [0, 0, 1], [0, 0, 0]], dtype=object
        )
        panels = {p1: (bt % p1).astype(np.int64), p2: (bt % p2).astype(np.int64)}
        prob = self._FakeProb(3, 3, panels, (p1, p2))
        idx_pad = np.array([[1, 0]])  # complement = {1, 0}
        null, unresolved = _kernel_nullities(prob, idx_pad)
        assert unresolved.tolist() == [True]

        # End to end: the residue arm forced, and a first-prime panel
        # that sees nothing, so every candidate of true nullity >= 2 is a
        # disagreement.  Exact elimination must settle each one.
        rng = np.random.default_rng(4)
        n_perm = rng.integers(-4, 5, size=(4, 12)).astype(float)
        mask, sizes = _random_supports(12, 40, 4)
        want = _reference_ranks(n_perm, mask, sizes)
        real = problem_for(n_perm)
        monkeypatch.setattr(modular, "BAREISS_GUARD", -1.0)
        monkeypatch.setitem(
            real._residues, real.primes[0],
            np.zeros((real.d, real.q), dtype=np.int64),
        )
        stats = IterationStats(position=0, reaction="r", reversible=False)
        got = modular_ranks(n_perm, mask, sizes, stats=stats)
        assert np.array_equal(got, want)
        assert stats.n_rank_fallback > 0
        assert stats.n_rank_modular + stats.n_rank_fallback == 40


class TestModularRanksEndToEnd:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exact_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_perm = rng.integers(-4, 5, size=(6, 14)).astype(float)
        mask, sizes = _random_supports(14, 30, seed)
        got = modular_ranks(n_perm, mask, sizes)
        assert np.array_equal(got, _reference_ranks(n_perm, mask, sizes))

    def test_duplicate_column_rank_deficiency(self):
        rng = np.random.default_rng(7)
        n_perm = rng.integers(-3, 4, size=(5, 10)).astype(float)
        n_perm[:, 7] = n_perm[:, 2]  # duplicated column
        n_perm[:, 9] = 2 * n_perm[:, 4] - n_perm[:, 2]
        mask, sizes = _random_supports(10, 25, 7)
        got = modular_ranks(n_perm, mask, sizes)
        assert np.array_equal(got, _reference_ranks(n_perm, mask, sizes))

    def test_exact_overflow_escalates_to_residue_arm(self, monkeypatch):
        # Force the certified-float64 arm to bail immediately; the residue
        # arm must deliver identical ranks.
        rng = np.random.default_rng(11)
        n_perm = rng.integers(-4, 5, size=(6, 13)).astype(float)
        mask, sizes = _random_supports(13, 24, 11)
        want = _reference_ranks(n_perm, mask, sizes)
        monkeypatch.setattr(modular, "BAREISS_GUARD", -1.0)
        stats = IterationStats(position=0, reaction="r", reversible=False)
        got = modular_ranks(n_perm, mask, sizes, stats=stats)
        assert np.array_equal(got, want)
        assert stats.n_rank_modular == 24

    def test_basis_overflow_pins_rank_mod_p(self):
        # Entries large enough that the exact Montante kernel overflows at
        # preparation time: the problem stays usable via per-prime bases.
        rng = np.random.default_rng(2)
        n_perm = rng.integers(-(2**28), 2**28, size=(5, 11)).astype(float)
        prob = problem_for(n_perm)
        assert prob.b_int is None and prob.bt is None
        assert prob.rank == np.linalg.matrix_rank(n_perm)
        mask, sizes = _random_supports(11, 20, 2)
        got = modular_ranks(n_perm, mask, sizes)
        assert np.array_equal(got, _reference_ranks(n_perm, mask, sizes))

    def _assert_exact(self, n_perm, n_cand, seed):
        mask, sizes = _random_supports(n_perm.shape[1], n_cand, seed)
        stats = IterationStats(position=0, reaction="r", reversible=False)
        got = modular_ranks(n_perm, mask, sizes, stats=stats)
        assert np.array_equal(got, _reference_ranks(n_perm, mask, sizes))
        assert stats.n_rank_modular == n_cand
        assert stats.n_rank_fallback == 0

    def test_denominator_beyond_a_thousand(self):
        rng = np.random.default_rng(8)
        n_perm = rng.integers(-3, 4, size=(5, 11)).astype(float)
        n_perm[:, 4] = [1 / 1001, 2.0, 0.0, -3 / 1001, 1.0]
        self._assert_exact(n_perm, 24, 8)

    def test_pi_scaled_random_matrix(self):
        rng = np.random.default_rng(5)
        n_perm = rng.normal(size=(5, 11)) * np.pi
        self._assert_exact(n_perm, 16, 5)

    def test_python_int_basis_beyond_the_float64_panel(self):
        # Two 1/997 + 2^30 columns: the integers leave int64, and the exact
        # kernel basis leaves the float64 panel, so the residue arm reduces
        # the Python-int basis mod p.
        rng = np.random.default_rng(6)
        n_perm = rng.integers(-3, 4, size=(4, 10)).astype(float)
        n_perm[:, 3] = [1 / 997, 2.0**30, 0.0, 1.0]
        n_perm[:, 7] = [2.0**30, 1 / 997, 1.0, 0.0]
        prob = problem_for(n_perm)
        assert prob.n_int.dtype == object and prob.b_int.dtype == object
        assert prob.bt is None
        self._assert_exact(n_perm, 30, 6)

    def test_unit_member_counter_counts_settled_members(self):
        rng = np.random.default_rng(9)
        # Small {-1, 0, 1} entries keep the kernel basis tiny enough for
        # the exact arm (where the unit-row reduction lives) to stay
        # engaged.
        n_perm = rng.integers(-1, 2, size=(6, 16)).astype(float)
        # Columns 13..15 outside every support: free reactions of the
        # kernel basis, so every complement holds unit members.
        mask = rng.random(size=(16, 60)) < 0.75
        mask[:3] = True
        mask[13:] = False
        sizes = mask.sum(axis=0).astype(np.int64)
        stats = IterationStats(position=0, reaction="r", reversible=False)
        got = modular_ranks(n_perm, mask, sizes, stats=stats)
        assert np.array_equal(got, _reference_ranks(n_perm, mask, sizes))
        assert stats.n_rank_unit_members > 0

    def test_full_support_candidates(self):
        rng = np.random.default_rng(13)
        n_perm = rng.integers(-3, 4, size=(4, 8)).astype(float)
        mask = np.ones((8, 3), dtype=bool)
        mask[5:, 1] = False
        sizes = mask.sum(axis=0).astype(np.int64)
        got = modular_ranks(n_perm, mask, sizes)
        assert np.array_equal(got, _reference_ranks(n_perm, mask, sizes))


class TestProblemRegistry:
    def test_identity_fast_path_returns_same_problem(self):
        n = np.arange(12, dtype=float).reshape(3, 4)
        a = problem_for(n)
        b = problem_for(n)
        assert a is b

    def test_equal_content_shares_via_digest(self):
        n1 = np.arange(12, dtype=float).reshape(3, 4)
        n2 = n1.copy()
        assert problem_for(n1) is problem_for(n2)

    def test_prepared_state_is_sound(self):
        rng = np.random.default_rng(1)
        n = rng.integers(-5, 6, size=(4, 9)).astype(float)
        prob = problem_for(n)
        assert prob.rank == np.linalg.matrix_rank(n)
        assert prob.d == 9 - prob.rank
