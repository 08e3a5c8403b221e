"""Tests for the column-partitioned distributed variant (future work #1)."""

import numpy as np
import pytest

from repro.core.serial import nullspace_algorithm
from repro.errors import AlgorithmError
from repro.models.generators import random_network
from repro.network.compression import compress_network
from repro.core.kernel import build_problem
from repro.parallel.combinatorial import combinatorial_parallel
from repro.parallel.distributed import distributed_parallel
from tests.conftest import assert_same_modes
from tests.core.fraction_oracle import oriented_rows, fraction_modes


class TestEquivalence:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
    def test_same_efms(self, toy_problem, n_ranks):
        serial = nullspace_algorithm(toy_problem)
        run = distributed_parallel(toy_problem, n_ranks)
        assert run.n_efms == serial.n_efms
        assert_same_modes(serial.efms_input_order(), run.efms_input_order())

    def test_random_networks(self):
        for seed in range(5):
            net = random_network(5, 9, seed=seed, reversible_fraction=0.2)
            rec = compress_network(net)
            if rec.reduced.n_reactions == 0:
                continue
            try:
                problem = build_problem(rec.reduced)
            except AlgorithmError:
                continue
            serial = nullspace_algorithm(problem)
            run = distributed_parallel(problem, 3)
            assert_same_modes(serial.efms_input_order(), run.efms_input_order())


class TestPartitioning:
    def test_modes_sharded_not_replicated(self, toy_problem):
        run = distributed_parallel(toy_problem, 4)
        counts = [m.n_modes for m in run.rank_modes]
        assert sum(counts) == 8
        assert max(counts) < 8  # no rank holds everything

    def test_no_duplicate_ownership(self, toy_problem):
        run = distributed_parallel(toy_problem, 3)
        all_words = np.concatenate(
            [m.supports.words for m in run.rank_modes], axis=0
        )
        assert np.unique(all_words, axis=0).shape[0] == all_words.shape[0]

    def test_peak_rank_bytes_below_replicated(self, toy_problem):
        replicated = combinatorial_parallel(toy_problem, 4)
        sharded = distributed_parallel(toy_problem, 4)
        rep_peak = max(s.peak_mode_bytes for s in replicated.rank_stats)
        assert sharded.peak_rank_bytes <= rep_peak

    def test_memory_scaling_with_ranks(self):
        # On a bigger instance the per-rank peak should shrink with P.
        net = random_network(6, 14, seed=42, reversible_fraction=0.1)
        rec = compress_network(net)
        problem = build_problem(rec.reduced)
        peak1 = distributed_parallel(problem, 1).peak_rank_bytes
        peak4 = distributed_parallel(problem, 4).peak_rank_bytes
        assert peak4 < peak1


class TestRestrictions:
    def test_integer_rows_equal_fraction_oracle(self, toy_problem):
        # Every driver carries the same exact integer rows, the
        # column-partitioned one included.
        run = distributed_parallel(toy_problem, 2)
        assert oriented_rows(
            run.all_modes().values.tolist(), toy_problem.reversible
        ) == oriented_rows(fraction_modes(toy_problem), toy_problem.reversible)

    def test_stop_row(self, toy_problem):
        run = distributed_parallel(toy_problem, 2, stop_row=toy_problem.q - 1)
        serial = nullspace_algorithm(toy_problem, stop_row=toy_problem.q - 1)
        got = run.all_modes()
        a = np.sort(np.round(serial.modes.values, 9), axis=0)
        b = np.sort(np.round(got.values, 9), axis=0)
        assert np.allclose(a, b)

    def test_stop_early_marks_incomplete(self, toy_problem):
        run = distributed_parallel(toy_problem, 2, stop_row=toy_problem.q - 1)
        assert not run.complete
        assert run.stopped_at == toy_problem.q - 1
        with pytest.raises(AlgorithmError, match="stopped early at row"):
            run.efms_input_order()
        # The intermediate shards stay readable through .rank_modes/.all_modes.
        assert run.all_modes().n_modes > 0

    def test_full_run_is_complete(self, toy_problem):
        run = distributed_parallel(toy_problem, 2)
        assert run.complete
        assert run.stopped_at == toy_problem.q
