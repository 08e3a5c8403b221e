"""SubproblemScheduler: planning, ordering, checkpointing, degradation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster.memory import MemoryModel, predict_subset_peak_bytes
from repro.config import AlgorithmOptions
from repro.dnc.combined import combined_parallel
from repro.dnc.subsets import enumerate_subsets
from repro.efm.api import compute_efms
from repro.engine import RunContext, SubproblemScheduler
from repro.engine import executors as executors_mod
from repro.errors import SchedulerError
from repro.models.toy import toy_network
from repro.network.compression import compress_network

from tests.conftest import canonical_rows

PARTITION = ("r6r", "r8r")


@pytest.fixture(scope="module")
def reduced():
    return compress_network(toy_network()).reduced


@pytest.fixture(scope="module")
def specs():
    return enumerate_subsets(PARTITION)


def make_scheduler(reduced, specs, **kw):
    return SubproblemScheduler(reduced, specs, **kw)


def predicting_scheduler(reduced, specs, **kw):
    """A scheduler whose plan predicts peaks: a two-worker pool reads
    them for LPT order and admission.  Only ``plan()`` is called on it,
    so no process starts."""
    return make_scheduler(
        reduced, specs, executor="process-pool", max_workers=2, **kw
    )


class TestPlanning:
    def test_plan_is_canonical_order(self, reduced, specs):
        jobs = make_scheduler(reduced, specs).plan()
        assert [j.index for j in jobs] == list(range(len(specs)))
        assert [j.spec.subset_id for j in jobs] == [s.subset_id for s in specs]

    def test_predictions_match_memory_model(self, reduced, specs):
        sched = predicting_scheduler(reduced, specs)
        jobs = sched.plan()
        # The scheduler predicts for whatever ordering its options select
        # (an env-sensitive default) — compare like for like.
        opts = sched.context.options
        for job in jobs:
            assert job.predicted_peak_bytes == predict_subset_peak_bytes(
                reduced,
                job.spec,
                pair_chunk=opts.pair_chunk,
                ordering=opts.ordering,
            )
            assert job.predicted_peak_bytes >= 0

    def test_predicted_peak_schedule_is_lpt(self, reduced, specs):
        sched = predicting_scheduler(reduced, specs)
        ordered = sched.scheduled(sched.plan())
        sizes = [j.predicted_peak_bytes for j in ordered]
        assert sizes == sorted(sizes, reverse=True)

    def test_reverse_and_subset_id_schedules(self, reduced, specs):
        # Subset-id and reverse order are index permutations.
        jobs = make_scheduler(reduced, specs).plan()
        ids = list(range(len(specs)))
        by_id = make_scheduler(reduced, specs, schedule=ids).scheduled(jobs)
        assert [j.index for j in by_id] == ids
        rev = make_scheduler(reduced, specs, schedule=ids[::-1]).scheduled(jobs)
        assert [j.index for j in rev] == ids[::-1]

    def test_explicit_permutation(self, reduced, specs):
        perm = [2, 0, 3, 1]
        sched = make_scheduler(reduced, specs, schedule=perm)
        assert [j.index for j in sched.scheduled(sched.plan())] == perm

    def test_bad_permutation_rejected(self, reduced, specs):
        sched = make_scheduler(reduced, specs, schedule=[0, 0, 1, 2])
        with pytest.raises(SchedulerError, match="permutation"):
            sched.scheduled(sched.plan())

    def test_unknown_schedule_rejected(self, reduced, specs):
        sched = make_scheduler(reduced, specs, schedule="chaotic")
        with pytest.raises(SchedulerError, match="unknown schedule"):
            sched.scheduled(sched.plan())

    @pytest.mark.parametrize("name", ["subset-id", "reverse"])
    def test_retired_schedule_names_rejected(self, reduced, specs, name):
        # Only "predicted-peak" is a name; other orders are permutations.
        sched = make_scheduler(reduced, specs, schedule=name)
        with pytest.raises(
            SchedulerError, match=r"'predicted-peak' or an index permutation"
        ):
            sched.scheduled(sched.plan())

    def test_unknown_executor_rejected(self, reduced, specs):
        with pytest.raises(SchedulerError, match="unknown executor"):
            make_scheduler(reduced, specs, executor="gpu")

    def test_bad_on_oom_rejected(self, reduced, specs):
        with pytest.raises(SchedulerError, match="on_oom"):
            make_scheduler(reduced, specs, on_oom="explode")


class TestCanonicalOrder:
    def test_result_order_independent_of_schedule(self, reduced, specs):
        base = make_scheduler(reduced, specs).run()
        rev = make_scheduler(
            reduced, specs, schedule=list(range(len(specs)))[::-1]
        ).run()
        assert [s.spec.subset_id for s in base.subsets] == [
            s.spec.subset_id for s in rev.subsets
        ]
        assert np.array_equal(base.efms(), rev.efms())

    def test_meta_reports_run_shape(self, reduced, specs):
        run = make_scheduler(reduced, specs).run()
        assert run.meta["executor"] == "inline"
        assert run.meta["n_jobs"] == len(specs)
        assert run.meta["n_degraded"] == 0
        # One job at a time and no memory model: nothing reads a peak.
        assert run.meta["predicted_total_bytes"] is None
        assert run.meta["admission_bytes"] is None

    def test_meta_reports_predictions_under_a_memory_model(self, reduced, specs):
        mm = MemoryModel(capacity_bytes=1 << 30)
        run = make_scheduler(
            reduced, specs, context=RunContext(memory_model=mm)
        ).run()
        assert run.meta["predicted_total_bytes"] > 0


class TestAdmissionBudget:
    def test_explicit_budget_wins(self, reduced, specs):
        mm = MemoryModel(capacity_bytes=1000)
        sched = make_scheduler(
            reduced,
            specs,
            context=RunContext(memory_model=mm),
            admission_bytes=77,
        )
        assert sched._admission_budget(executor_workers=4) == 77

    def test_default_budget_is_capacity_times_workers(self, reduced, specs):
        mm = MemoryModel(capacity_bytes=1000)
        sched = make_scheduler(reduced, specs, context=RunContext(memory_model=mm))
        assert sched._admission_budget(executor_workers=4) == 4000

    def test_inline_reports_one_node_of_budget(self, reduced, specs):
        # Inline runs one job at a time, so its default budget is one
        # node's capacity, whatever the host's parallelism.
        mm = MemoryModel(capacity_bytes=1000)
        run = make_scheduler(
            reduced, specs, context=RunContext(memory_model=mm), on_oom="degrade"
        ).run()
        assert run.meta["admission_bytes"] == 1000

    def test_no_model_no_budget(self, reduced, specs):
        assert (
            make_scheduler(reduced, specs)._admission_budget(executor_workers=2)
            is None
        )


class TestDegradation:
    def test_degrade_completes_under_tiny_memory(self, reduced, specs):
        base = make_scheduler(reduced, specs).run()
        mm = MemoryModel(capacity_bytes=500)
        run = make_scheduler(
            reduced,
            specs,
            context=RunContext(memory_model=mm),
            on_oom="degrade",
        ).run()
        assert run.complete
        assert run.meta["n_degraded"] >= 1
        assert any(s.degraded for s in run.subsets)
        assert np.array_equal(
            canonical_rows(base.efms()), canonical_rows(run.efms())
        )

    def test_degraded_yeast_subsets_share_the_memo_and_resume(
        self, tmp_path, monkeypatch
    ):
        """yeast-I-small, q_sub=5, every subset over the node budget: the
        degraded run finds the undegraded EFM set, ranks through the
        run's shared memo, and a degrade killed mid-subset resumes from
        its row-level snapshot."""
        from repro.core import checkpoint
        from repro.models.variants import yeast_1_small

        net = yeast_1_small()
        base = compute_efms(net, method="combined", partition=5)

        ctx = RunContext(memory_model=MemoryModel(capacity_bytes=500))
        run = compute_efms(
            net, method="combined", partition=5, on_oom="degrade", context=ctx
        )
        meta = run.meta["scheduler"]
        assert meta["n_degraded"] == meta["n_jobs"] - run.meta["n_screened"] > 0
        assert np.array_equal(
            canonical_rows(base.fluxes), canonical_rows(run.fluxes)
        )
        memo = ctx.shared_rank_memo[0]
        hits = sum(s.total_rank_cache_hits for s in ctx.collected_stats)
        assert memo.hits == hits > 0

        # Kill the run at the third row-level snapshot, then resume it.
        d = tmp_path / "ckpt"
        real_save = checkpoint.Checkpoint.save
        saves = []

        def dying_save(self, path):
            real_save(self, path)
            saves.append(path)
            if len(saves) == 3:
                raise RuntimeError("simulated kill during a degraded subset")

        monkeypatch.setattr(checkpoint.Checkpoint, "save", dying_save)
        with pytest.raises(RuntimeError, match="simulated kill"):
            compute_efms(
                net, method="combined", partition=5, on_oom="degrade",
                context=RunContext(
                    memory_model=MemoryModel(capacity_bytes=500),
                    checkpoint_path=d,
                ),
            )
        assert saves[-1].exists() and saves[-1].name.endswith("_serial.npz")
        monkeypatch.setattr(checkpoint.Checkpoint, "save", real_save)

        real_start = checkpoint.resume_or_start
        prefixes = []

        def spy_start(path, problem, ordering):
            ck = real_start(path, problem, ordering)
            prefixes.append(len(ck.row_order))
            return ck

        monkeypatch.setattr(checkpoint, "resume_or_start", spy_start)
        resumed = compute_efms(
            net, method="combined", partition=5, on_oom="degrade",
            context=RunContext(
                memory_model=MemoryModel(capacity_bytes=500), checkpoint_path=d
            ),
        )
        assert prefixes[0] >= 1 and not any(prefixes[1:])
        assert not list(d.glob("*_serial.npz"))
        assert np.array_equal(
            canonical_rows(base.fluxes), canonical_rows(resumed.fluxes)
        )

    def test_record_keeps_oom_in_result(self, reduced, specs):
        mm = MemoryModel(capacity_bytes=100)
        run = combined_parallel(
            reduced, PARTITION, 1, memory_model=mm, on_oom="record"
        )
        assert not run.complete
        assert any(s.oom is not None for s in run.subsets)


class TestCheckpointing:
    def test_resume_skips_completed_subsets(self, reduced, specs, tmp_path):
        d = tmp_path / "ckpt"
        first = make_scheduler(reduced, specs, checkpoint_dir=d).run()
        assert first.meta["n_resumed"] == 0
        assert len(list(d.glob("subset_*.npz"))) == len(specs)
        second = make_scheduler(reduced, specs, checkpoint_dir=d).run()
        assert second.meta["n_resumed"] == len(specs)
        assert all(s.resumed for s in second.subsets)
        assert np.array_equal(first.efms(), second.efms())

    def test_fingerprint_mismatch_refuses_resume(self, reduced, specs, tmp_path):
        d = tmp_path / "ckpt"
        make_scheduler(reduced, specs, checkpoint_dir=d).run()
        other = RunContext(options=AlgorithmOptions(ordering="natural"))
        with pytest.raises(SchedulerError, match="different run"):
            make_scheduler(reduced, specs, context=other, checkpoint_dir=d).run()

    def test_older_checkpoint_format_refuses_resume(self, reduced, specs, tmp_path):
        d = tmp_path / "ckpt"
        make_scheduler(reduced, specs, checkpoint_dir=d).run()
        manifest = d / "manifest.json"
        meta = json.loads(manifest.read_text())
        meta["version"] = 1  # subset files without the ``screened`` flag
        manifest.write_text(json.dumps(meta))
        with pytest.raises(SchedulerError, match="checkpoint format"):
            make_scheduler(reduced, specs, checkpoint_dir=d).run()

    def test_version_2_manifest_refuses_resume(self, reduced, specs, tmp_path):
        # Version 2 fingerprinted the rank tolerance, which no longer exists.
        d = tmp_path / "ckpt"
        make_scheduler(reduced, specs, checkpoint_dir=d).run()
        manifest = d / "manifest.json"
        meta = json.loads(manifest.read_text())
        meta["version"] = 2
        manifest.write_text(json.dumps(meta))
        with pytest.raises(SchedulerError, match="checkpoint format"):
            make_scheduler(reduced, specs, checkpoint_dir=d).run()

    def test_version_4_manifest_refuses_resume(self, reduced, specs, tmp_path):
        # Version 4 fingerprinted the acceptance test, which is gone; the
        # manifest is refused by version, naming both, not as a foreign run.
        d = tmp_path / "ckpt"
        make_scheduler(reduced, specs, checkpoint_dir=d).run()
        manifest = d / "manifest.json"
        meta = json.loads(manifest.read_text())
        meta["version"] = 4
        manifest.write_text(json.dumps(meta))
        with pytest.raises(
            SchedulerError, match=r"format version 4 \(expected 5\)"
        ):
            make_scheduler(reduced, specs, checkpoint_dir=d).run()

    def test_interrupted_combined_run_resumes(self, reduced, tmp_path, monkeypatch):
        """Satellite: kill the run after k subsets, resume, identical EFMs."""
        d = tmp_path / "ckpt"
        baseline = compute_efms(
            toy_network(), method="combined", partition=list(PARTITION)
        )

        real_solve = executors_mod.solve_job
        calls = {"n": 0}

        def dying_solve(order, job):
            if calls["n"] >= 2:
                raise RuntimeError("simulated crash after 2 subsets")
            calls["n"] += 1
            return real_solve(order, job)

        monkeypatch.setattr(executors_mod, "solve_job", dying_solve)
        with pytest.raises(RuntimeError, match="simulated crash"):
            compute_efms(
                toy_network(),
                method="combined",
                partition=list(PARTITION),
                checkpoint_path=d,
            )
        survived = len(list(d.glob("subset_*.npz")))
        assert survived == 2

        monkeypatch.setattr(executors_mod, "solve_job", real_solve)
        resumed = compute_efms(
            toy_network(),
            method="combined",
            partition=list(PARTITION),
            checkpoint_path=d,
        )
        assert resumed.meta["scheduler"]["n_resumed"] == survived
        assert np.array_equal(
            canonical_rows(baseline.fluxes), canonical_rows(resumed.fluxes)
        )
