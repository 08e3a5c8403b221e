"""Unit tests for problem setup (kernel construction, permutations)."""

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.core.kernel import build_problem, problem_from_matrices
from repro.errors import AlgorithmError, NoModesError, ReversibleIdentityError
from repro.models.generators import random_network
from repro.network.compression import compress_network
from repro.network.stoichiometry import stoichiometric_matrix


class TestProblemInvariants:
    def test_kernel_annihilated(self, toy_record):
        p = build_problem(toy_record.reduced)
        assert np.allclose(p.n_perm @ p.kernel, 0.0)

    def test_perm_is_bijection(self, toy_record):
        p = build_problem(toy_record.reduced)
        assert sorted(p.perm.tolist()) == list(range(p.q))
        inv = p.inverse_perm()
        assert np.array_equal(p.perm[inv], np.arange(p.q))

    def test_names_follow_perm(self, toy_record):
        p = build_problem(toy_record.reduced)
        reduced_names = toy_record.reduced.reaction_names
        assert p.names == tuple(reduced_names[i] for i in p.perm)

    def test_identity_block_irreversible(self, toy_record):
        p = build_problem(toy_record.reduced)
        assert not p.reversible[: p.n_free].any()

    def test_reversible_rows_processed_last(self, toy_record):
        p = build_problem(toy_record.reduced)
        rev_positions = np.nonzero(p.reversible)[0]
        irr_tail = [
            i for i in range(p.first_row, p.q) if not p.reversible[i]
        ]
        assert rev_positions.min() > max(irr_tail)

    def test_random_networks_well_formed(self):
        for seed in range(10):
            net = random_network(5, 9, seed=seed, reversible_fraction=0.2)
            rec = compress_network(net)
            if rec.reduced.n_reactions == 0:
                continue
            try:
                p = build_problem(rec.reduced)
            except (ReversibleIdentityError, AlgorithmError):
                continue
            assert np.allclose(p.n_perm @ p.kernel, 0.0, atol=1e-8)
            assert p.rank == p.q - p.n_free


class TestForceLast:
    def test_forced_rows_at_bottom_in_order(self, toy_record):
        p = build_problem(toy_record.reduced, force_last=("r6r", "r8r"))
        assert p.names[-2:] == ("r6r", "r8r")

    def test_forced_reaction_preferred_as_pivot(self, toy_record):
        # Partition rows need sign diversity: forcing r4 pulls it out of
        # the identity block and into the pivot (processed) part.
        p = build_problem(toy_record.reduced, force_last=("r4",))
        assert p.names[-1] == "r4"
        assert p.first_row == p.n_free  # block structure intact

    def test_dependent_forced_irreversible_resets_first_row(self):
        # Two identical irreversible columns can't both be pivots; forcing
        # both leaves one in the identity block, so every row must be
        # processed (first_row == 0).
        n = np.array([[1.0, -1.0, -1.0]])
        p = problem_from_matrices(
            n, np.zeros(3, dtype=bool), ["a", "b", "c"], force_last=("b", "c")
        )
        assert p.names[-2:] == ("b", "c")
        assert p.first_row == 0

    def test_unknown_force_last(self, toy_record):
        with pytest.raises(AlgorithmError):
            build_problem(toy_record.reduced, force_last=("nope",))


class TestFreeHint:
    def test_hint_honored(self, toy_record):
        p = build_problem(toy_record.reduced, free_hint=("r2", "r4", "r5", "r7"))
        assert set(p.names[:4]) == {"r2", "r4", "r5", "r7"}

    def test_reversible_hint_rejected(self, toy_record):
        with pytest.raises(AlgorithmError, match="reversible"):
            build_problem(toy_record.reduced, free_hint=("r6r",))

    def test_unknown_hint_rejected(self, toy_record):
        with pytest.raises(AlgorithmError):
            build_problem(toy_record.reduced, free_hint=("zzz",))


class TestReversibleIdentityGuard:
    def test_too_many_reversibles_raises_with_names(self):
        # 1 metabolite, 3 reversible reactions: rank 1, nullspace dim 2,
        # no irreversible columns at all.
        from repro.network.parser import network_from_equations

        net = network_from_equations(
            "t", ["a : Aext <=> M", "b : M <=> Bext", "c : M <=> Cext"]
        )
        with pytest.raises(ReversibleIdentityError) as exc_info:
            build_problem(net)
        assert len(exc_info.value.reactions) >= 1


class TestProblemFromMatrices:
    def test_shape_validation(self):
        with pytest.raises(AlgorithmError):
            problem_from_matrices(
                np.zeros((2, 3)), np.zeros(2, dtype=bool), ["a", "b", "c"]
            )

    def test_duplicate_names(self):
        with pytest.raises(AlgorithmError):
            problem_from_matrices(
                np.zeros((1, 2)), np.zeros(2, dtype=bool), ["a", "a"]
            )

    def test_trivial_nullspace(self):
        n = np.eye(3)
        with pytest.raises(NoModesError, match="trivial nullspace"):
            problem_from_matrices(n, np.zeros(3, dtype=bool), ["a", "b", "c"])

    def test_matches_build_problem(self, toy_record):
        red = toy_record.reduced
        p1 = build_problem(red)
        p2 = problem_from_matrices(
            stoichiometric_matrix(red),
            np.array(red.reversibility),
            red.reaction_names,
        )
        assert p1.names == p2.names
        assert np.array_equal(p1.kernel, p2.kernel)

    def test_position_of(self, toy_problem):
        assert toy_problem.position_of("r8r") == 7
        with pytest.raises(AlgorithmError):
            toy_problem.position_of("zzz")
