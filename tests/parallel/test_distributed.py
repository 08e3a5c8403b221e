"""Tests for the column-partitioned variant (future work #1): the Nullspace
loop with the mode matrix sharded across ranks
(``combinatorial_parallel(..., sharded=True)``, ``method="distributed"``)."""

import numpy as np
import pytest

from repro.cluster.memory import MemoryModel
from repro.config import AlgorithmOptions
from repro.core.serial import nullspace_algorithm
from repro.efm.api import build_problem_with_split, compute_efms
from repro.errors import AlgorithmError, OutOfMemoryError
from repro.models.generators import random_network
from repro.models.toy import toy_network
from repro.models.variants import yeast_1_small, yeast_2_small
from repro.network.compression import compress_network
from repro.core.kernel import build_problem
from repro.parallel.combinatorial import combinatorial_parallel, join_shards
from tests.conftest import assert_same_modes
from tests.core.fraction_oracle import oriented_rows, fraction_modes


def distributed(problem, n_ranks, **kwargs):
    return combinatorial_parallel(problem, n_ranks, sharded=True, **kwargs)


class TestEquivalence:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
    def test_same_efms(self, toy_problem, n_ranks):
        serial = nullspace_algorithm(toy_problem)
        run = distributed(toy_problem, n_ranks)
        assert run.result.n_efms == serial.n_efms
        assert_same_modes(serial.efms_input_order(), run.result.efms_input_order())

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
            run = distributed(problem, 3)
            assert_same_modes(
                serial.efms_input_order(), run.result.efms_input_order()
            )


_NETWORKS = {"toy": toy_network, "yeast-I-small": yeast_1_small,
             "yeast-II-small": yeast_2_small}


@pytest.fixture(scope="module")
def serial_efms():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = compute_efms(_NETWORKS[name]())
        return cache[name]

    return get


class TestComputeEfms:
    @pytest.mark.parametrize("backend", ["sequential", "process"])
    @pytest.mark.parametrize("n_ranks", [2, 3])
    @pytest.mark.parametrize("name", list(_NETWORKS))
    def test_serial_efm_set(self, serial_efms, name, n_ranks, backend):
        serial = serial_efms(name)
        run = compute_efms(
            _NETWORKS[name](), method="distributed", n_ranks=n_ranks,
            backend=backend,
        )
        assert serial.same_modes_as(run)
        # The merged stats count every shard's modes, not the largest one.
        assert run.stats.n_efms == serial.stats.n_efms

    def test_yeast2_rank_tests_each_support_once(self, serial_efms):
        # The ranks stream with the zero-entry preload and dedup across
        # ranks before the rank test, as Algorithm 2 does.  Sharded
        # selection scores rows without lookahead, so the row order (and
        # the count) may differ from serial's slightly.
        serial = serial_efms("yeast-II-small")
        run = compute_efms(yeast_2_small(), method="distributed", n_ranks=2)
        assert run.stats.total_rank_tests < 1.01 * serial.stats.total_rank_tests

    def test_memory_model_enforced(self):
        with pytest.raises(OutOfMemoryError, match="at iteration") as exc_info:
            compute_efms(
                yeast_1_small(), method="distributed", n_ranks=2,
                memory_model=MemoryModel(capacity_bytes=10_000),
            )
        assert exc_info.value.iteration >= 0

    def test_memory_model_charges_gathered_modes(self):
        """A row's gathered active modes are alive beside the shard: a
        budget that fits every shard but not shard + gathered runs out."""
        reduced = compress_network(yeast_1_small()).reduced
        problem, _ = build_problem_with_split(reduced)
        seen = []

        class Recorder:
            def check(self, k, modes, gathered_bytes=0):
                seen.append((modes.nbytes(), gathered_bytes))

        distributed(problem, 2, memory_model=Recorder())
        shard = max(b for b, _ in seen)
        shard_and_gathered = max(b + g for b, g in seen)
        assert shard < shard_and_gathered
        cap = int(1.5 * shard)  # MemoryModel's default working factor
        assert cap < int(1.5 * shard_and_gathered)
        with pytest.raises(OutOfMemoryError, match="at iteration") as exc_info:
            distributed(problem, 2, memory_model=MemoryModel(capacity_bytes=cap))
        assert exc_info.value.iteration >= problem.first_row


class TestPartitioning:
    def test_modes_sharded_not_replicated(self, toy_problem):
        run = distributed(toy_problem, 4)
        counts = [s.n_efms for s in run.rank_stats]
        assert sum(counts) == 8
        assert max(counts) < 8  # no rank holds everything

    def test_no_duplicate_ownership(self, toy_problem):
        run = distributed(toy_problem, 3)
        all_words = run.result.modes.supports.words
        assert np.unique(all_words, axis=0).shape[0] == all_words.shape[0]

    def test_double_ownership_raises(self, toy_problem):
        shard = nullspace_algorithm(toy_problem)
        with pytest.raises(AlgorithmError, match="owned by more than one rank"):
            join_shards([shard, shard])

    def test_trace_snapshots_cover_every_shard(self, toy_problem):
        opts = AlgorithmOptions(ordering="paper", record_trace=True)
        serial = nullspace_algorithm(toy_problem, options=opts)
        run = distributed(toy_problem, 3, options=opts)
        assert len(run.result.trace) == len(serial.trace)
        for got, want in zip(run.result.trace, serial.trace):
            assert got.position == want.position
            assert sorted(map(tuple, got.matrix.T.tolist())) == sorted(
                map(tuple, want.matrix.T.tolist())
            )

    def test_peak_rank_bytes_below_replicated(self, toy_problem):
        replicated = combinatorial_parallel(toy_problem, 4)
        sharded = distributed(toy_problem, 4)
        rep_peak = max(s.peak_mode_bytes for s in replicated.rank_stats)
        assert sharded.stats.peak_mode_bytes <= rep_peak

    def test_memory_scaling_with_ranks(self):
        # On a bigger instance the per-rank peak should shrink with P.
        net = random_network(6, 14, seed=42, reversible_fraction=0.1)
        rec = compress_network(net)
        problem = build_problem(rec.reduced)
        peak1 = distributed(problem, 1).stats.peak_mode_bytes
        peak4 = distributed(problem, 4).stats.peak_mode_bytes
        assert peak4 < peak1


class TestRestrictions:
    def test_integer_rows_equal_fraction_oracle(self, toy_problem):
        # Every driver carries the same exact integer rows, the
        # column-partitioned one included.
        run = distributed(toy_problem, 2)
        assert oriented_rows(
            run.result.modes.values.tolist(), toy_problem.reversible
        ) == oriented_rows(fraction_modes(toy_problem), toy_problem.reversible)

    def test_stop_row(self, toy_problem):
        run = distributed(toy_problem, 2, stop_row=toy_problem.q - 1)
        serial = nullspace_algorithm(toy_problem, stop_row=toy_problem.q - 1)
        got = run.result.modes
        a = np.sort(np.round(serial.modes.values, 9), axis=0)
        b = np.sort(np.round(got.values, 9), axis=0)
        assert np.allclose(a, b)

    def test_stop_early_marks_incomplete(self, toy_problem):
        run = distributed(toy_problem, 2, stop_row=toy_problem.q - 1)
        assert not run.result.complete
        assert run.result.stopped_at == toy_problem.q - 1
        with pytest.raises(AlgorithmError, match="stopped early at row"):
            run.result.efms_input_order()
        # The intermediate shards stay readable, concatenated, via .modes.
        assert run.result.modes.n_modes > 0

    def test_full_run_is_complete(self, toy_problem):
        run = distributed(toy_problem, 2)
        assert run.result.complete
        assert run.result.stopped_at == toy_problem.q
