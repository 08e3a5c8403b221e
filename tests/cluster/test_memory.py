"""Unit tests for the per-node memory model."""

import numpy as np
import pytest

from repro.cluster import memory
from repro.cluster.memory import (
    MemoryModel,
    candidate_row_bytes,
    estimate_mode_bytes,
    predict_subset_peak_bytes,
    prefilter_working_bytes,
    streaming_chunk_pairs,
)
from repro.core.state import ModeMatrix
from repro.errors import OutOfMemoryError


def _modes(n, q=8):
    return ModeMatrix(np.ones((n, q)))


class TestMemoryModel:
    def test_under_capacity_records_peak(self):
        mm = MemoryModel(capacity_bytes=10**9)
        mm.charge(0, _modes(10))
        mm.charge(1, _modes(100))
        mm.charge(2, _modes(50))
        assert mm.peak_bytes == int(1.5 * _modes(100).nbytes())
        assert mm.last_iteration == 2

    def test_overflow_raises_with_context(self):
        mm = MemoryModel(capacity_bytes=100)
        with pytest.raises(OutOfMemoryError) as exc_info:
            mm.charge(7, _modes(1000))
        err = exc_info.value
        assert err.iteration == 7
        assert err.required_bytes > 100
        assert err.capacity_bytes == 100

    def test_non_enforcing_dry_run(self):
        mm = MemoryModel(capacity_bytes=1, enforcing=False)
        mm.charge(0, _modes(1000))  # no raise
        assert mm.peak_bytes > 1

    def test_working_factor(self):
        lean = MemoryModel(capacity_bytes=10**9, working_factor=1.0)
        fat = MemoryModel(capacity_bytes=10**9, working_factor=2.0)
        m = _modes(10)
        lean.charge(0, m)
        fat.charge(0, m)
        assert fat.peak_bytes == 2 * lean.peak_bytes

    def test_fresh_resets_peak_keeps_config(self):
        mm = MemoryModel(capacity_bytes=123, working_factor=1.25, enforcing=False)
        mm.charge(0, _modes(100))
        f = mm.fresh()
        assert f.peak_bytes == 0
        assert f.capacity_bytes == 123
        assert f.working_factor == 1.25
        assert f.enforcing is False

    def test_check_alias(self):
        mm = MemoryModel(capacity_bytes=10**9)
        mm.check(3, _modes(5))
        assert mm.last_iteration == 3


class TestEstimate:
    def test_matches_mode_matrix_nbytes(self):
        for n, q in [(10, 8), (100, 70), (3, 130)]:
            est = estimate_mode_bytes(n, q)
            actual = ModeMatrix(np.ones((n, q))).nbytes()
            assert est == actual

    def test_zero_modes(self):
        assert estimate_mode_bytes(0, 10) == 0


class TestCandidateRowBytes:
    def test_deferred_much_smaller_for_wide_networks(self):
        # Packed support words + two pair indices, against a dense row.
        q = 64
        assert candidate_row_bytes(q) == 8 + 16
        assert estimate_mode_bytes(1, q) >= 4 * candidate_row_bytes(q)

    def test_word_rounding(self):
        assert candidate_row_bytes(65) == 16 + 16
        assert candidate_row_bytes(1) == 8 + 16


class TestStreamingChunkPairs:
    def test_default_budget(self):
        q, pc = 64, 1 << 20
        per_pair = prefilter_working_bytes(q, 1, 1)
        assert streaming_chunk_pairs(q, pc) == (16 << 20) // per_pair

    def test_clamped_to_pair_chunk(self):
        # The budget never enlarges a chunk beyond pair_chunk.
        assert streaming_chunk_pairs(32, pair_chunk=128) == 128

    def test_tiny_budget_floors_at_one_pair(self, monkeypatch):
        monkeypatch.setattr(memory, "DEFAULT_STREAM_CHUNK_BYTES", 1)
        assert streaming_chunk_pairs(32) == 1

    def test_budget_scales_chunk(self, monkeypatch):
        monkeypatch.setattr(memory, "DEFAULT_STREAM_CHUNK_BYTES", 8 << 10)
        small = streaming_chunk_pairs(64, pair_chunk=1 << 20)
        monkeypatch.setattr(memory, "DEFAULT_STREAM_CHUNK_BYTES", 128 << 10)
        big = streaming_chunk_pairs(64, pair_chunk=1 << 20)
        assert 1 <= small < big


class TestYeastDncPredictionPins:
    """Predicted peaks of yeast-I-small's 32 ``q_sub=5`` subsets (the
    ``y1-dnc5`` benchmark workload), pinned to the values of the
    streamed, support-first, 16 MiB-budget model they were first
    computed with, so the scheduler's LPT order cannot drift silently."""

    PARTITION = ("R22r", "R32r", "R81r", "R96r", "R102r")
    DYNAMIC = [
        5044792, 5930980, 3537074, 4094752, 5930980, 6810843, 4094752,
        4647352, 5168056, 6071325, 3617902, 4185008, 6071325, 6966988,
        4185008, 4746202, 5168056, 6071325, 3617902, 4185008, 6071325,
        6966988, 4185008, 4746202, 2800218, 4185008, 4185008, 4746202,
        3257808, 4746202, 4746202, 5290182,
    ]
    PAPER = [
        5044792, 5930980, 5930980, 6810843, 5930980, 6810843, 6810843,
        7663792, 5168056, 6071325, 6071325, 6966988, 6071325, 6966988,
        6966988, 7834084, 5168056, 6071325, 6071325, 6966988, 6071325,
        6966988, 6966988, 7834084, 6071325, 6966988, 6966988, 7834084,
        6966988, 7834084, 7834084, 8653282,
    ]

    @pytest.fixture(scope="class")
    def problem(self):
        from repro.config import AlgorithmOptions
        from repro.dnc.selection import select_partition_reactions
        from repro.dnc.subsets import enumerate_subsets
        from repro.models.variants import yeast_1_small
        from repro.network.compression import compress_network

        opts = AlgorithmOptions(
            ordering="dynamic", rank_backend="modular", pair_pruning="tiles"
        )
        reduced = compress_network(yeast_1_small()).reduced
        part = select_partition_reactions(reduced, 5, method="tail", options=opts)
        assert tuple(part) == self.PARTITION
        return reduced, enumerate_subsets(tuple(part)), opts

    @pytest.mark.parametrize("ordering", ["dynamic", "paper"])
    def test_predictions_pinned(self, problem, ordering):
        reduced, specs, _ = problem
        got = [
            predict_subset_peak_bytes(reduced, spec, ordering=ordering)
            for spec in specs
        ]
        assert got == (self.DYNAMIC if ordering == "dynamic" else self.PAPER)

    def test_scheduler_plan_pinned(self, problem):
        from repro.engine import RunContext, SubproblemScheduler

        reduced, specs, opts = problem
        sched = SubproblemScheduler(reduced, specs, context=RunContext(options=opts))
        jobs = sched.plan()
        assert [j.predicted_peak_bytes for j in jobs] == self.DYNAMIC
        order = [j.index for j in sched.scheduled(jobs)]
        assert order == sorted(
            range(len(specs)), key=lambda i: (-self.DYNAMIC[i], i)
        )


class TestPredictionUpperBoundsMeasuredPeak:
    """Acceptance property: the a-priori prediction upper-bounds the
    *measured* peak (working-factor-weighted mode storage plus the worst
    iteration's retained-candidate + generation-transient bytes, straight
    from the run stats) across all pair strategies, at the default chunk
    budget and a small one."""

    WF = 1.5

    @staticmethod
    def _measured(stats, wf):
        cand = max(
            (it.candidate_bytes + it.prefilter_bytes for it in stats.iterations),
            default=0,
        )
        return wf * stats.peak_mode_bytes + cand

    @pytest.mark.parametrize("chunk", ["auto", 64 << 10])
    @pytest.mark.parametrize("strategy", ["strided", "block", "tiled"])
    def test_prediction_is_upper_bound(self, monkeypatch, strategy, chunk):
        from repro.config import AlgorithmOptions
        from repro.dnc.combined import solve_subset
        from repro.dnc.subsets import enumerate_subsets
        from repro.models.toy import toy_network
        from repro.network.compression import compress_network

        if chunk != "auto":
            monkeypatch.setattr(memory, "DEFAULT_STREAM_CHUNK_BYTES", chunk)
        reduced = compress_network(toy_network()).reduced
        opts = AlgorithmOptions(pair_chunk=64)
        for spec in enumerate_subsets(("r6r", "r8r")):
            predicted = predict_subset_peak_bytes(
                reduced, spec,
                working_factor=self.WF,
                pair_chunk=opts.pair_chunk,
                pair_pruning=opts.pair_pruning,
            )
            res = solve_subset(
                reduced, spec, 2, options=opts, pair_strategy=strategy
            )
            if res.stats is None:  # structurally empty subproblem
                assert predicted == 0
                continue
            measured = max(self._measured(s, self.WF) for s in res.rank_stats)
            assert measured > 0
            assert predicted >= measured, (
                f"{spec.label()}: predicted {predicted} < measured "
                f"{measured:.0f} ({strategy}, chunk budget {chunk})"
            )
