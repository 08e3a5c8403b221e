"""Unit tests for the serial Nullspace Algorithm driver."""

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.core.kernel import build_problem
from repro.core.serial import nullspace_algorithm
from repro.errors import AlgorithmError, OutOfMemoryError
from repro.models.generators import random_network
from repro.network.compression import compress_network
from repro.network.stoichiometry import stoichiometric_matrix
from tests.core.adjacency_oracle import adjacency_nullspace_algorithm, mode_rows


class TestBasicRun:
    def test_result_flags(self, toy_problem):
        res = nullspace_algorithm(toy_problem)
        assert res.complete
        assert res.stopped_at == toy_problem.q
        assert res.n_efms == 8

    def test_efms_satisfy_steady_state(self, toy_record, toy_problem):
        res = nullspace_algorithm(toy_problem)
        efms = res.efms_input_order()
        n = stoichiometric_matrix(toy_record.reduced)
        assert np.allclose(n @ efms.T, 0.0, atol=1e-9)

    def test_irreversible_nonnegative(self, toy_record, toy_problem):
        res = nullspace_algorithm(toy_problem)
        efms = res.efms_input_order()
        irr = ~np.array(toy_record.reduced.reversibility)
        assert (efms[:, irr] >= -1e-12).all()

    def test_stats_totals(self, toy_problem):
        res = nullspace_algorithm(toy_problem)
        assert res.stats.total_candidates == 6  # 0 + 1 + 1 + 4
        assert res.stats.n_efms == 8
        assert res.stats.t_total > 0
        assert res.stats.peak_mode_bytes > 0

    def test_ordering_invariance(self, toy_record):
        base = None
        for ordering in ("paper", "natural", "most-nonzeros", "random"):
            p = build_problem(
                toy_record.reduced, options=AlgorithmOptions(ordering=ordering)
            )
            res = nullspace_algorithm(p)
            if base is None:
                base = res.n_efms
            assert res.n_efms == base


class TestStopRow:
    def test_stop_early_marks_incomplete(self, toy_problem):
        res = nullspace_algorithm(toy_problem, stop_row=toy_problem.q - 1)
        assert not res.complete
        with pytest.raises(AlgorithmError):
            _ = res.n_efms
        with pytest.raises(AlgorithmError):
            res.efms_input_order()

    def test_stop_early_error_names_position(self, toy_problem):
        """The early-stop guard must say where the run stopped and how to
        get at the intermediate matrix, not just refuse."""
        res = nullspace_algorithm(toy_problem, stop_row=toy_problem.q - 1)
        with pytest.raises(AlgorithmError, match=r"stopped early at row"):
            res.efms_input_order()
        with pytest.raises(AlgorithmError, match=r"\.modes"):
            _ = res.n_efms

    def test_stop_row_bounds_checked(self, toy_problem):
        with pytest.raises(AlgorithmError):
            nullspace_algorithm(toy_problem, stop_row=toy_problem.q + 1)
        with pytest.raises(AlgorithmError):
            nullspace_algorithm(toy_problem, stop_row=toy_problem.first_row - 1)

    def test_proposition_1(self, toy_problem):
        """Stop before the last row: columns with non-zero last entry ==
        EFMs with non-zero flux in that reaction (Proposition 1)."""
        last = toy_problem.q - 1
        partial = nullspace_algorithm(toy_problem, stop_row=last)
        full = nullspace_algorithm(toy_problem)
        # last row is r8r (reversible): non-zero entries of either sign.
        col = partial.modes.values[:, last]
        stopped_nonzero = partial.modes.values[col != 0.0]
        full_nonzero = full.modes.values[full.modes.values[:, last] != 0.0]
        a = np.sort(np.round(stopped_nonzero, 9), axis=0)
        b = np.sort(np.round(full_nonzero, 9), axis=0)
        assert a.shape == b.shape and np.allclose(a, b)


class TestMemoryCheck:
    def test_callback_invoked_each_iteration(self, toy_problem):
        seen = []
        nullspace_algorithm(
            toy_problem, memory_check=lambda k, modes: seen.append(k)
        )
        assert seen == list(range(toy_problem.first_row, toy_problem.q))

    def test_oom_propagates(self, toy_problem):
        def boom(k, modes):
            raise OutOfMemoryError("cap", iteration=k)

        with pytest.raises(OutOfMemoryError):
            nullspace_algorithm(toy_problem, memory_check=boom)


class TestTrace:
    def test_trace_disabled_by_default(self, toy_problem):
        assert nullspace_algorithm(toy_problem).trace == []

    def test_trace_snapshots(self, toy_problem):
        options = AlgorithmOptions(record_trace=True)
        res = nullspace_algorithm(toy_problem, options=options)
        assert len(res.trace) == 4
        assert res.trace[-1].matrix.shape == (8, 8)
        assert "r8r" in res.trace[-1].render()

    def test_every_loop_path_traces_each_iteration(self, toy_problem, tmp_path):
        """A checkpointed run, a resumed run and Algorithm 2 on two ranks
        each return one snapshot per iteration they ran."""
        from repro.parallel.combinatorial import combinatorial_parallel

        options = AlgorithmOptions(record_trace=True)
        plain = nullspace_algorithm(toy_problem, options=options)
        rows = [it.position for it in plain.stats.iterations]
        assert [t.position for t in plain.trace] == rows

        checkpointed = nullspace_algorithm(
            toy_problem, options=options, checkpoint_path=tmp_path / "a.ckpt"
        )
        assert [t.position for t in checkpointed.trace] == rows
        for got, want in zip(checkpointed.trace, plain.trace):
            assert np.array_equal(got.matrix, want.matrix)

        path = tmp_path / "b.ckpt"
        nullspace_algorithm(
            toy_problem, options=options, checkpoint_path=path,
            stop_row=toy_problem.first_row + 2,
        )
        resumed = nullspace_algorithm(
            toy_problem, options=options, checkpoint_path=path
        )
        assert len(resumed.stats.iterations) == len(rows)
        assert [t.position for t in resumed.trace] == rows[2:]

        parallel = combinatorial_parallel(
            toy_problem, 2, options=options, backend="sequential"
        )
        assert [t.position for t in parallel.result.trace] == rows


class TestAcceptanceGuard:
    """The rank run against the adjacency-test oracle, which refuses
    problems whose processed rows are not all irreversible."""

    def test_oracle_refuses_reversible_rows(self, toy_problem):
        with pytest.raises(ValueError, match="irreversible"):
            adjacency_nullspace_algorithm(toy_problem)

    def test_bittree_ok_on_irreversible_network(self):
        net = random_network(4, 8, seed=0, reversible_fraction=0.0)
        rec = compress_network(net)
        p = build_problem(rec.reduced)
        by_rank = nullspace_algorithm(p)
        by_tree = adjacency_nullspace_algorithm(p)
        assert by_rank.n_efms == by_tree.n_efms
        assert mode_rows(by_rank) == mode_rows(by_tree)
