"""End-to-end reproduction of the paper's worked example (§II.C, Figures
1-2, eqs. (2)-(7)).  These are the strongest correctness anchors in the
suite: every number asserted below appears literally in the paper."""

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.core.serial import nullspace_algorithm
from repro.efm.api import compute_efms
from tests.conftest import assert_same_modes, canonical_rows
from tests.core.fraction_oracle import solve_with_fraction_oracle

#: eq. (7): the 8 EFMs of the toy network, columns of the paper's matrix,
#: transcribed as rows (reaction order r1..r9).
EQ7_EFMS = np.array(
    [
        [1, 1, 0, 0, 0, -1, 0, 1, 0],
        [0, 0, 1, 1, 0, 1, 0, -1, 1],
        [1, 0, 0, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, 2, 0, 0, 1, -1, 0],
        [1, 1, 1, 1, 0, 0, 0, 0, 1],
        [1, 1, 0, 2, 0, -1, 1, 0, 0],
        [1, 0, 1, 1, 1, 1, 0, 0, 1],
        [1, 0, 0, 2, 1, 0, 1, 0, 0],
    ],
    dtype=float,
)


class TestKernelForm:
    def test_row_order_matches_eq5(self, toy_problem):
        assert toy_problem.names == ("r2", "r4", "r5", "r7", "r1", "r3", "r6r", "r8r")

    def test_kernel_matches_eq5(self, toy_problem):
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
                [1, 0, 1, 0],
                [0, 1, 0, -2],
                [-1, 1, 0, -2],
                [1, -1, 1, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(toy_problem.kernel, expected)

    def test_nperm_matches_eq6(self, toy_problem):
        expected = np.array(
            [
                [-1, 0, -1, 0, 1, 0, 0, 0],
                [0, 0, 1, -1, 0, 0, -1, -1],
                [1, 0, 0, 0, 0, -1, 1, 0],
                [0, -1, 0, 2, 0, 1, 0, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(toy_problem.n_perm, expected)

    def test_dimensions(self, toy_problem):
        assert toy_problem.n_free == 4
        assert toy_problem.rank == 4
        assert toy_problem.first_row == 4


class TestIterationNarrative:
    """§II.C's walk-through, iteration by iteration."""

    @pytest.fixture(scope="class")
    def result(self, toy_problem):
        return nullspace_algorithm(toy_problem)

    def test_r1_no_candidates(self, result):
        it = result.stats.iterations[0]
        assert it.reaction == "r1"
        assert it.n_pairs == 0 and it.n_neg == 0

    def test_r3_single_candidate_accepted(self, result):
        it = result.stats.iterations[1]
        assert it.reaction == "r3"
        assert (it.n_pos, it.n_neg) == (1, 1)
        assert it.n_pairs == 1 and it.n_accepted == 1
        assert it.n_neg_removed == 1  # irreversible: the (-2) column goes

    def test_r6r_single_candidate_no_removal(self, result):
        it = result.stats.iterations[2]
        assert it.reaction == "r6r"
        assert it.n_pairs == 1 and it.n_accepted == 1
        assert it.n_neg_removed == 0  # reversible: negatives kept

    def test_r8r_four_candidates_one_duplicate_three_probed(self, result):
        it = result.stats.iterations[3]
        assert it.reaction == "r8r"
        assert (it.n_pos, it.n_neg) == (2, 2)
        assert it.n_pairs == 4
        assert it.n_duplicates == 1  # "two of these columns are duplicates"
        assert it.n_tested == 3  # "only three are probed"
        assert it.n_accepted == 3  # all three pass: K(4)'s 5 columns + 3 = 8
        assert it.n_modes_end == 8

    def test_r3_candidate_vector(self, toy_problem):
        """The candidate at r3 is (0,2,0,1,0,0,0,-1) in permuted order."""
        options = AlgorithmOptions(record_trace=True)
        result = nullspace_algorithm(toy_problem, options=options)
        k3 = result.trace[1].matrix  # after the r3 iteration: exact integers
        assert k3.dtype == np.int64
        target = np.array([0, 2, 0, 1, 0, 0, 0, -1])
        cols = [k3[:, j] for j in range(k3.shape[1])]
        assert any(np.array_equal(c, target) for c in cols)

    def test_r6r_candidate_vector(self, toy_problem):
        options = AlgorithmOptions(record_trace=True)
        result = nullspace_algorithm(toy_problem, options=options)
        k4 = result.trace[2].matrix
        target = np.array([1, 1, 0, 0, 1, 1, 0, 0])
        cols = [k4[:, j] for j in range(k4.shape[1])]
        assert any(np.array_equal(c, target) for c in cols)


class TestFinalEFMs:
    def test_eight_efms_matching_eq7(self, toy):
        result = compute_efms(toy)
        assert result.n_efms == 8
        assert_same_modes(result.fluxes, EQ7_EFMS)

    def test_exact_arithmetic_same_set(self, toy):
        # The integer run equals the Fraction oracle's run bit for bit.
        result = compute_efms(toy)
        oracle = solve_with_fraction_oracle(compute_efms, toy)
        assert_same_modes(oracle.fluxes, EQ7_EFMS)
        assert np.array_equal(result.fluxes, oracle.fluxes)
        assert result.meta["certified"] == oracle.meta["certified"] == 8

    def test_validates(self, toy):
        compute_efms(toy).validate()

    def test_integerized_rows_are_eq7_columns(self, toy):
        result = compute_efms(toy)
        got = canonical_rows(result.integerized())
        want = canonical_rows(EQ7_EFMS)
        assert np.allclose(got, want)


class TestDncPartitions:
    def test_r6r_r8r_partition_sizes(self, toy_record):
        """§III.A: each of the four subsets holds exactly 2 EFMs."""
        from repro.dnc.combined import combined_parallel

        run = combined_parallel(toy_record.reduced, ("r6r", "r8r"), 1)
        assert [s.n_efms for s in run.subsets] == [2, 2, 2, 2]
        assert run.n_efms == 8

    def test_r8r_r9_partition_sizes_in_original_space(self, toy):
        """§II.E: partitioning the 8 EFMs across (r8r, r9) gives subsets
        {6,8}, {1,3,4}, {5,7}, {2} — sizes 2, 3, 2, 1."""
        result = compute_efms(toy)
        j8 = toy.reaction_index("r8r")
        j9 = toy.reaction_index("r9")
        sizes = []
        for bits in range(4):
            want8 = bool(bits & 1)
            want9 = bool(bits & 2)
            count = sum(
                1
                for row in result.fluxes
                if (abs(row[j8]) > 1e-9) == want8 and (abs(row[j9]) > 1e-9) == want9
            )
            sizes.append(count)
        assert sorted(sizes) == [1, 2, 2, 3]

    def test_dnc_union_equals_eq7(self, toy):
        result = compute_efms(toy, method="combined", partition=("r6r", "r8r"))
        assert_same_modes(result.fluxes, EQ7_EFMS)
