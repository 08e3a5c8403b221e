"""Unit tests for row-ordering heuristics."""

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.core.ordering import order_rows
from repro.errors import AlgorithmError


def _kernel():
    # 6 rows, 2 free; tail rows with nnz 3, 1, 2, 2.
    return np.array(
        [
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],  # pos 2: nnz 2... recount below
            [0.0, 2.0],  # pos 3: nnz 1
            [1.0, -1.0],  # pos 4: nnz 2
            [3.0, 4.0],  # pos 5: nnz 2
        ]
    )


class TestOrderings:
    def test_paper_sorts_by_nnz_reversibles_last(self):
        kernel = _kernel()
        rev = np.array([False, False, False, False, True, False])
        order = order_rows(kernel, rev, 2, AlgorithmOptions(ordering="paper"))
        # irreversible tail rows by nnz: pos3 (1), then pos2/pos5 (2 each,
        # tie by position), then reversible pos4 last.
        assert order.tolist() == [3, 2, 5, 4]

    def test_natural_keeps_order(self):
        kernel = _kernel()
        rev = np.zeros(6, dtype=bool)
        order = order_rows(kernel, rev, 2, AlgorithmOptions(ordering="natural"))
        assert order.tolist() == [2, 3, 4, 5]

    def test_most_nonzeros_is_adversarial(self):
        kernel = _kernel()
        rev = np.zeros(6, dtype=bool)
        order = order_rows(
            kernel, rev, 2, AlgorithmOptions(ordering="most-nonzeros")
        )
        nnz = [(kernel[p] != 0).sum() for p in order]
        assert nnz == sorted(nnz, reverse=True)

    def test_random_is_seeded_permutation(self):
        kernel = _kernel()
        rev = np.zeros(6, dtype=bool)
        o1 = order_rows(kernel, rev, 2, AlgorithmOptions(ordering="random", ordering_seed=1))
        o2 = order_rows(kernel, rev, 2, AlgorithmOptions(ordering="random", ordering_seed=1))
        o3 = order_rows(kernel, rev, 2, AlgorithmOptions(ordering="random", ordering_seed=2))
        assert o1.tolist() == o2.tolist()
        assert sorted(o1.tolist()) == [2, 3, 4, 5]
        assert sorted(o3.tolist()) == [2, 3, 4, 5]

    def test_all_rows_free(self):
        kernel = np.eye(3)
        order = order_rows(kernel, np.zeros(3, dtype=bool), 3, AlgorithmOptions())
        assert order.size == 0

    def test_bad_n_free(self):
        with pytest.raises(AlgorithmError):
            order_rows(np.eye(3), np.zeros(3, dtype=bool), 5, AlgorithmOptions())


# ---------------------------------------------------------------------------
# RowSelector
# ---------------------------------------------------------------------------

from repro.core.kernel import NullspaceProblem
from repro.core.ordering import RowSelector
from repro.core.state import ModeMatrix


def _problem(q, n_free, reversible=None):
    """Minimal NullspaceProblem stub: identity block on top, zero tail."""
    if reversible is None:
        reversible = np.zeros(q, dtype=bool)
    kernel = np.zeros((q, n_free))
    kernel[:n_free] = np.eye(n_free)
    return NullspaceProblem(
        n_perm=np.zeros((1, q)),
        kernel=kernel,
        reversible=np.asarray(reversible, dtype=bool),
        names=tuple(f"r{i}" for i in range(q)),
        perm=np.arange(q, dtype=np.intp),
        n_free=n_free,
        rank=q - n_free,
        first_row=n_free,
    )


def _modes(rows):
    """ModeMatrix from an explicit (n_modes, q) value matrix."""
    return ModeMatrix(np.asarray(rows, dtype=np.float64))


class TestRowSelectorStatic:
    def test_replays_window_in_order(self):
        p = _problem(5, 2)
        sel = RowSelector(p, 5, AlgorithmOptions(ordering="paper"))
        assert sel.n_remaining == 3
        picks = [sel.next_row() for _ in range(3)]
        assert picks == [2, 3, 4]
        assert sel.realized == [2, 3, 4]
        assert not sel.has_next()
        with pytest.raises(AlgorithmError):
            sel.next_row()

    def test_stop_limits_window(self):
        p = _problem(6, 2)
        sel = RowSelector(p, 4, AlgorithmOptions(ordering="paper"))
        assert sel.remaining_rows().tolist() == [2, 3]

    def test_stop_out_of_range(self):
        p = _problem(5, 2)
        with pytest.raises(AlgorithmError):
            RowSelector(p, 6, AlgorithmOptions())
        with pytest.raises(AlgorithmError):
            RowSelector(p, 1, AlgorithmOptions())

    def test_no_score_telemetry(self):
        p = _problem(4, 2)
        sel = RowSelector(p, 4, AlgorithmOptions(ordering="natural"))
        sel.next_row()
        assert sel.last_score == 0
        assert sel.last_evaluated == 0


class TestRowSelectorDynamic:
    def test_requires_live_modes(self):
        p = _problem(4, 2)
        sel = RowSelector(p, 4, AlgorithmOptions(ordering="dynamic"))
        with pytest.raises(AlgorithmError, match="live mode matrix"):
            sel.next_row()

    def test_picks_min_active_count(self):
        # row2: 2 pos + 2 neg = 4 active; row3: 1+1 = 2 active.
        p = _problem(4, 2)
        modes = _modes(
            [
                [0, 0, 1, 0],
                [0, 0, 1, 0],
                [0, 0, -1, 1],
                [0, 0, -1, -1],
            ]
        )
        sel = RowSelector(
            p, 4, AlgorithmOptions(ordering="dynamic", selection_lookahead=0)
        )
        assert sel.next_row(modes) == 3
        assert sel.last_score == 1  # 1 pos * 1 neg
        assert sel.last_evaluated == 2

    def test_pair_count_breaks_active_ties(self):
        # Both rows have 4 active modes; row2 splits 2x2 (4 pairs),
        # row3 splits 3x1 (3 pairs) -> row3 wins.
        p = _problem(4, 2)
        modes = _modes(
            [
                [0, 0, 1, 1],
                [0, 0, 1, 1],
                [0, 0, -1, 1],
                [0, 0, -1, -1],
            ]
        )
        sel = RowSelector(
            p, 4, AlgorithmOptions(ordering="dynamic", selection_lookahead=0)
        )
        assert sel.next_row(modes) == 3

    def test_position_breaks_full_ties(self):
        p = _problem(4, 2)
        modes = _modes([[0, 0, 1, 1], [0, 0, -1, -1]])
        sel = RowSelector(
            p, 4, AlgorithmOptions(ordering="dynamic", selection_lookahead=0)
        )
        assert sel.next_row(modes) == 2

    def test_reversible_rows_deferred(self):
        # Reversible row2 is far cheaper but must wait until no
        # irreversible row remains in the window.
        rev = np.array([False, False, True, False])
        p = _problem(4, 2, rev)
        modes = _modes(
            [
                [0, 0, 1, 1],
                [0, 0, 0, 1],
                [0, 0, 0, -1],
                [0, 0, 0, -1],
            ]
        )
        sel = RowSelector(
            p, 4, AlgorithmOptions(ordering="dynamic", selection_lookahead=0)
        )
        assert sel.next_row(modes) == 3
        assert sel.next_row(modes) == 2
        assert sel.realized == [3, 2]

    def test_lookahead_credit_flips_pick(self):
        # Base key prefers row2 (2 active, 1 pair).  Row3 has 3 active but
        # eliminating it (irreversible RemoveNegColumns) drops the two
        # modes carrying ALL the support of rows 4 and 5, making both
        # free follow-up eliminations: credit 2 -> key (1, 2, 3) wins.
        p = _problem(6, 2)
        modes = _modes(
            [
                [0, 0, 1, 0, 0, 0],
                [0, 0, -1, 0, 0, 0],
                [0, 0, 0, 1, 0, 0],
                [0, 0, 0, -1, 1, -1],
                [0, 0, 0, -1, -1, 1],
            ]
        )
        greedy = RowSelector(
            p, 6, AlgorithmOptions(ordering="dynamic", selection_lookahead=1)
        )
        assert greedy.next_row(modes) == 2
        deep = RowSelector(
            p, 6, AlgorithmOptions(ordering="dynamic", selection_lookahead=4)
        )
        assert deep.next_row(modes) == 3

    def test_selection_invariant_to_mode_row_order(self):
        p = _problem(5, 2)
        vals = np.array(
            [
                [0, 0, 1, 2, 0],
                [0, 0, -1, 0, 3],
                [0, 0, 1, -2, 0],
                [0, 0, 0, -1, -3],
            ],
            dtype=np.float64,
        )
        opts = AlgorithmOptions(ordering="dynamic")
        a = RowSelector(p, 5, opts)
        b = RowSelector(p, 5, opts)
        assert a.next_row(_modes(vals)) == b.next_row(_modes(vals[::-1]))


class TestRowSelectorCounts:
    def test_count_matrix_alignment_and_sharded_sum(self):
        # Two "ranks" each holding half the modes: the element-wise sum of
        # their count matrices equals the full-matrix counts, and feeding
        # it to next_row_from_counts reproduces the local pick.
        p = _problem(5, 2)
        vals = np.array(
            [
                [0, 0, 1, 1, 0],
                [0, 0, 1, -1, 2],
                [0, 0, -1, 1, 0],
                [0, 0, -1, -1, -2],
            ],
            dtype=np.float64,
        )
        opts = AlgorithmOptions(ordering="dynamic", selection_lookahead=0)
        full = RowSelector(p, 5, opts)
        sharded = RowSelector(p, 5, opts)
        parts = [
            sharded.count_matrix(_modes(vals[:2])),
            sharded.count_matrix(_modes(vals[2:])),
        ]
        totals = parts[0] + parts[1]
        np.testing.assert_array_equal(
            totals, full.count_matrix(_modes(vals))
        )
        k_full = full.next_row(_modes(vals))
        k_sharded = sharded.next_row_from_counts(totals[0], totals[1])
        assert k_full == k_sharded

    def test_misaligned_counts_rejected(self):
        p = _problem(5, 2)
        sel = RowSelector(p, 5, AlgorithmOptions(ordering="dynamic"))
        with pytest.raises(AlgorithmError, match="misaligned"):
            sel.next_row_from_counts(np.zeros(2), np.zeros(2))

    def test_empty_modes_count_matrix(self):
        p = _problem(4, 2)
        sel = RowSelector(p, 4, AlgorithmOptions(ordering="dynamic"))
        counts = sel.count_matrix(_modes(np.zeros((0, 4))))
        assert counts.shape == (2, 2)
        assert not counts.any()


class TestRowSelectorProcessed:
    def test_duplicates_rejected(self):
        p = _problem(5, 2)
        with pytest.raises(AlgorithmError, match="duplicates"):
            RowSelector(p, 5, AlgorithmOptions(), processed=(2, 2))

    def test_out_of_window_rejected(self):
        p = _problem(5, 2)
        with pytest.raises(AlgorithmError, match="outside the selection"):
            RowSelector(p, 4, AlgorithmOptions(), processed=(4,))

    def test_static_requires_prefix(self):
        p = _problem(5, 2)
        with pytest.raises(AlgorithmError, match="different ordering"):
            RowSelector(
                p, 5, AlgorithmOptions(ordering="paper"), processed=(3,)
            )

    def test_static_prefix_resumes(self):
        p = _problem(5, 2)
        sel = RowSelector(
            p, 5, AlgorithmOptions(ordering="paper"), processed=(2, 3)
        )
        assert sel.realized == [2, 3]
        assert sel.next_row() == 4

    def test_dynamic_accepts_any_subset(self):
        p = _problem(5, 2)
        sel = RowSelector(
            p, 5, AlgorithmOptions(ordering="dynamic"), processed=(4,)
        )
        assert sel.realized == [4]
        assert sel.remaining_rows().tolist() == [2, 3]


class TestRowSelectorIntrospection:
    def test_adjacency_rows_exclude_in_flight(self):
        # The adjacency oracle masks on the identity block plus the rows
        # eliminated before the in-flight one.  Replaying the out-of-
        # position order the dynamic selector realized on the fully split
        # yeast-I-small problem, it reaches the rank run's modes exactly.
        from repro.core.serial import nullspace_algorithm
        from repro.models.variants import yeast_1_small
        from repro.network.compression import compress_network
        from tests.core.adjacency_oracle import (
            adjacency_nullspace_algorithm,
            mode_rows,
            realized_order,
            split_every_reversible,
        )

        reduced = compress_network(yeast_1_small()).reduced
        p, _ = split_every_reversible(reduced)
        by_rank = nullspace_algorithm(
            p, options=AlgorithmOptions(ordering="dynamic")
        )
        order = realized_order(by_rank)
        assert sorted(order) == list(range(p.first_row, p.q))
        assert order != sorted(order)
        by_tree = adjacency_nullspace_algorithm(p, row_order=order)
        assert mode_rows(by_tree) == mode_rows(by_rank)

    def test_fingerprint_row_order_invariant(self):
        p = _problem(4, 2)
        vals = np.array(
            [[0, 0, 1, 2], [0, 0, -1, 3], [0, 0, 2, -1]], dtype=np.float64
        )
        sel = RowSelector(p, 4, AlgorithmOptions(ordering="dynamic"))
        assert sel.fingerprint(2, _modes(vals)) == sel.fingerprint(
            2, _modes(vals[::-1])
        )

    def test_annotate_stamps_iteration(self):
        p = _problem(4, 2)
        modes = _modes([[0, 0, 1, 1], [0, 0, -1, -1]])
        sel = RowSelector(p, 4, AlgorithmOptions(ordering="dynamic"))
        sel.next_row(modes)

        class It:
            sel_score = -1
            sel_evaluated = -1

        it = It()
        sel.annotate(it)
        assert it.sel_score == sel.last_score
        assert it.sel_evaluated == sel.last_evaluated
