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
    streamed, support-first, 16 MiB-budget model with one bounded
    rank-kernel block, so the scheduler's LPT order cannot drift
    silently."""

    PARTITION = ("R22r", "R32r", "R81r", "R96r", "R102r")
    DYNAMIC = [
        4686480, 5472458, 3078552, 3527552, 5472458, 6243643, 3527552,
        3964920, 4800056, 5600635, 3147212, 3603064, 5600635, 6385044,
        3603064, 4046402, 4800056, 5600635, 3147212, 3603064, 5600635,
        6385044, 3603064, 4046402, 2329528, 3603064, 3603064, 4046402,
        2675864, 4046402, 4046402, 4466964,
    ]
    PAPER = [
        4686480, 5472458, 5472458, 6243643, 5472458, 6243643, 6243643,
        6981360, 4800056, 5600635, 5600635, 6385044, 5600635, 6385044,
        6385044, 7134284, 4800056, 5600635, 5600635, 6385044, 5600635,
        6385044, 6385044, 7134284, 5600635, 6385044, 6385044, 7134284,
        6385044, 7134284, 7134284, 7830064,
    ]

    @pytest.fixture(scope="class")
    def problem(self):
        from repro.config import AlgorithmOptions
        from repro.dnc.selection import select_partition_reactions
        from repro.dnc.subsets import enumerate_subsets
        from repro.models.variants import yeast_1_small
        from repro.network.compression import compress_network

        opts = AlgorithmOptions(ordering="dynamic")
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

    #: The subsets the plan's blocked-reaction screen lets through; the
    #: other 24 are proven empty and predict 0 bytes.
    SURVIVORS = (0, 1, 2, 3, 28, 29, 30, 31)

    def test_scheduler_plan_pinned(self, problem):
        from repro.engine import RunContext, SubproblemScheduler

        reduced, specs, opts = problem
        # A two-worker pool reads the predictions (LPT order, admission);
        # only plan() runs, so no process starts.
        sched = SubproblemScheduler(
            reduced, specs, context=RunContext(options=opts),
            executor="process-pool", max_workers=2,
        )
        jobs = sched.plan()
        assert tuple(j.index for j in jobs if not j.screened) == self.SURVIVORS
        planned = [
            peak if i in self.SURVIVORS else 0 for i, peak in enumerate(self.DYNAMIC)
        ]
        assert [j.predicted_peak_bytes for j in jobs] == planned
        order = [j.index for j in sched.scheduled(jobs)]
        assert order == sorted(range(len(specs)), key=lambda i: (-planned[i], i))

    @pytest.mark.parametrize(
        "executor, memory, calls",
        [("inline", False, 0), ("process-pool", False, 8), ("inline", True, 8)],
    )
    def test_plan_predicts_only_when_a_decision_reads_it(
        self, problem, monkeypatch, executor, memory, calls
    ):
        import repro.engine.scheduler as scheduler_mod
        from repro.engine import RunContext, SubproblemScheduler

        reduced, specs, opts = problem
        seen = []

        def spy(*args, **kwargs):
            seen.append(args[1].subset_id)
            return predict_subset_peak_bytes(*args, **kwargs)

        monkeypatch.setattr(scheduler_mod, "predict_subset_peak_bytes", spy)
        ctx = RunContext(
            options=opts,
            memory_model=MemoryModel(capacity_bytes=1 << 30) if memory else None,
        )
        sched = SubproblemScheduler(
            reduced, specs, context=ctx, executor=executor, max_workers=2
        )
        jobs = sched.plan()
        assert len(seen) == calls
        assert sorted(seen) == (list(self.SURVIVORS) if calls else [])
        survivors = [j for j in jobs if not j.screened]
        if calls:
            assert all(j.predicted_peak_bytes > 0 for j in survivors)
        else:
            assert all(j.predicted_peak_bytes is None for j in survivors)
            # Unpredicted jobs run in canonical order.
            assert [j.index for j in sched.scheduled(survivors)] == list(
                self.SURVIVORS
            )


class TestPredictionUpperBoundsMeasuredPeak:
    """Acceptance property: the a-priori prediction upper-bounds the
    *measured* peak (working-factor-weighted mode storage plus the worst
    iteration's retained-candidate + generation-transient bytes, straight
    from the run stats) on two ranks, at the default chunk budget and a
    small one."""

    WF = 1.5

    @staticmethod
    def _measured(stats, wf):
        cand = max(
            (it.candidate_bytes + it.prefilter_bytes for it in stats.iterations),
            default=0,
        )
        return wf * stats.peak_mode_bytes + cand

    @pytest.mark.parametrize("chunk", ["auto", 64 << 10])
    def test_prediction_is_upper_bound(self, monkeypatch, chunk):
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
            )
            res = solve_subset(reduced, spec, 2, options=opts)
            if res.stats is None:  # structurally empty subproblem
                assert predicted == 0
                continue
            measured = max(self._measured(s, self.WF) for s in res.rank_stats)
            assert measured > 0
            assert predicted >= measured, (
                f"{spec.label()}: predicted {predicted} < measured "
                f"{measured:.0f} (chunk budget {chunk})"
            )


class TestAllocatedPeakBytes:
    """Peak memory is the modes: the tracemalloc peak of real solves —
    every byte Python and numpy allocate, not the program's own accounting
    — against the live mode matrix and against the a-priori prediction."""

    @staticmethod
    def _traced_peak(solve):
        import tracemalloc

        tracemalloc.start()
        try:
            return solve(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def yeast_2(self):
        from repro.models.registry import get_network
        from repro.network.compression import compress_network

        net = get_network("yeast-II-small")
        return net, compress_network(net).reduced

    def test_serial_solve_within_four_mode_matrices(self, yeast_2):
        from repro.efm.api import compute_efms

        net, _ = yeast_2
        result, peak = self._traced_peak(lambda: compute_efms(net))
        assert result.n_efms == 7331
        assert peak <= 4 * result.stats.peak_mode_bytes, (
            f"peak {peak} B is {peak / result.stats.peak_mode_bytes:.2f}x the "
            f"{result.stats.peak_mode_bytes} B mode matrix"
        )

    def test_unsplit_solve_within_prediction(self, yeast_2):
        from repro.dnc.subsets import SubsetSpec
        from repro.efm.api import compute_efms

        net, reduced = yeast_2
        predicted = predict_subset_peak_bytes(reduced, SubsetSpec(0, ()))
        result, peak = self._traced_peak(lambda: compute_efms(net))
        assert result.n_efms == 7331
        assert peak <= predicted, f"peak {peak} B > predicted {predicted} B"

    def test_every_dnc_subset_solve_within_prediction(self):
        from repro.dnc.combined import solve_subset
        from repro.dnc.selection import select_partition_reactions
        from repro.dnc.subsets import enumerate_subsets
        from repro.models.registry import get_network
        from repro.network.compression import compress_network

        reduced = compress_network(get_network("yeast-I-small")).reduced
        part = select_partition_reactions(reduced, 5)
        n_efms = 0
        for spec in enumerate_subsets(part):
            predicted = predict_subset_peak_bytes(reduced, spec)
            res, peak = self._traced_peak(lambda: solve_subset(reduced, spec, 1))
            n_efms += res.n_efms
            assert peak <= predicted, (
                f"{spec.label()}: peak {peak} B > predicted {predicted} B"
            )
        assert n_efms == 530
