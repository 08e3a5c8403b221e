"""Tests for the combinatorial parallel Nullspace Algorithm (Algorithm 2)."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.memory import MemoryModel
from repro.core.serial import nullspace_algorithm
from repro.engine.context import RunContext
from repro.errors import OutOfMemoryError
from repro.linalg.rankmemo import CacheBinding, RankCache, problem_token
from repro.parallel import combinatorial as combinatorial_mod
from repro.parallel.combinatorial import combinatorial_parallel
from tests.conftest import assert_same_modes


class TestEquivalenceWithSerial:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 5, 8])
    def test_same_efms_any_rank_count(self, toy_problem, n_ranks):
        serial = nullspace_algorithm(toy_problem)
        run = combinatorial_parallel(toy_problem, n_ranks)
        assert_same_modes(serial.efms_input_order(), run.result.efms_input_order())

    def test_candidate_total_invariant_across_ranks(self, toy_problem):
        totals = {
            combinatorial_parallel(toy_problem, p).stats.total_candidates
            for p in (1, 2, 4)
        }
        assert len(totals) == 1

    @pytest.mark.parametrize("backend", ["sequential"])
    def test_backends(self, toy_problem, backend):
        serial = nullspace_algorithm(toy_problem)
        run = combinatorial_parallel(toy_problem, 3, backend=backend)
        assert_same_modes(serial.efms_input_order(), run.result.efms_input_order())


class TestPerRankAccounting:
    def test_pairs_partitioned_across_ranks(self, toy_problem):
        run = combinatorial_parallel(toy_problem, 2)
        serial = nullspace_algorithm(toy_problem)
        for i, it_serial in enumerate(serial.stats.iterations):
            rank_pairs = sum(s.iterations[i].n_pairs for s in run.rank_stats)
            assert rank_pairs == it_serial.n_pairs

    def test_traces_recorded(self, toy_problem):
        run = combinatorial_parallel(toy_problem, 3)
        assert len(run.rank_traces) == 3
        # An iteration with pairs allgathers the survivors, and then the
        # accept bits when there are survivors (each is tested on exactly
        # one rank); an iteration without pairs exchanges nothing.
        per_iteration = [
            0 if it.n_pos * it.n_neg == 0 else 1 + (it.n_tested > 0)
            for it in run.stats.iterations
        ]
        assert 2 in per_iteration
        for trace in run.rank_traces:
            gathers = [e for e in trace.events if e.kind == "allgather"]
            assert len(gathers) == sum(per_iteration)

    def test_aggregate_stats_max_times(self, toy_problem):
        run = combinatorial_parallel(toy_problem, 2)
        agg = run.stats
        for i in range(len(agg.iterations)):
            per_rank = [s.iterations[i].t_gen_cand for s in run.rank_stats]
            assert agg.iterations[i].t_gen_cand == pytest.approx(max(per_rank))

    def test_replicas_converge(self, toy_problem):
        # combinatorial_parallel itself asserts replica equality; run it
        # at an awkward rank count to exercise the check.
        run = combinatorial_parallel(toy_problem, 7)
        assert run.result.n_efms == 8
        assert run.n_ranks == 7


class TestStopRowAndMemory:
    def test_stop_row(self, toy_problem):
        run = combinatorial_parallel(toy_problem, 2, stop_row=toy_problem.q - 1)
        assert not run.result.complete
        serial = nullspace_algorithm(toy_problem, stop_row=toy_problem.q - 1)
        a = np.sort(np.round(serial.modes.values, 9), axis=0)
        b = np.sort(np.round(run.result.modes.values, 9), axis=0)
        assert np.allclose(a, b)

    def test_memory_model_enforced(self, toy_problem):
        for n_ranks in (1, 2):
            with pytest.raises(OutOfMemoryError):
                combinatorial_parallel(
                    toy_problem, n_ranks, memory_model=MemoryModel(capacity_bytes=8)
                )

    def test_dry_run_probe_reports_peak(self, toy_problem):
        probe = MemoryModel(capacity_bytes=1, enforcing=False)
        run = combinatorial_parallel(toy_problem, 1, memory_model=probe)
        assert probe.peak_bytes >= run.stats.peak_mode_bytes > 0


def _counters(stats):
    """Every non-timing counter of a run: per iteration, and run-wide."""
    its = [
        {k: v for k, v in dataclasses.asdict(it).items() if not k.startswith("t_")}
        for it in stats.iterations
    ]
    run = {
        k: v for k, v in dataclasses.asdict(stats).items()
        if k not in ("iterations", "t_total")
    }
    return its, run


class TestOneRank:
    """One rank has nothing to exchange: Algorithm 2 runs the serial
    Algorithm 1 loop in the calling process, whatever the backend."""

    @pytest.mark.parametrize("which", ["toy", "yeast"])
    def test_bit_identical_to_serial(self, toy_problem, yeast_problem, which):
        problem = toy_problem if which == "toy" else yeast_problem
        serial = nullspace_algorithm(problem)
        for backend in ("sequential", "process"):
            run = combinatorial_parallel(problem, 1, backend=backend)
            assert np.array_equal(
                run.result.modes.supports.words, serial.modes.supports.words
            )
            assert np.array_equal(run.result.modes.values, serial.modes.values)
            assert _counters(run.stats) == _counters(serial.stats)
            assert run.n_ranks == 1 and run.rank_traces[0].events == []

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_never_enters_spmd(self, toy_problem, monkeypatch, backend):
        def refuse(*args, **kwargs):
            raise AssertionError("one rank entered run_spmd")

        monkeypatch.setattr(combinatorial_mod, "run_spmd", refuse)
        run = combinatorial_parallel(toy_problem, 1, backend=backend)
        assert run.result.n_efms == 8
        with pytest.raises(AssertionError, match="run_spmd"):
            combinatorial_parallel(toy_problem, 2, backend=backend)

    def test_uses_the_given_rank_cache(self, yeast_problem):
        # The context hands a plain run no memo; an explicit binding is
        # still honoured.
        ctx = RunContext()
        assert ctx.rank_binding_for(yeast_problem) is None
        binding = CacheBinding(RankCache(), problem_token(yeast_problem.n_perm))
        combinatorial_parallel(yeast_problem, 1, rank_cache=binding, context=ctx)
        assert len(binding.cache) > 0
