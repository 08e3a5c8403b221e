"""SubproblemScheduler: planning, ordering, checkpointing, refinement."""

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

    def test_unknown_executor_rejected(self, reduced, specs):
        with pytest.raises(SchedulerError, match="unknown executor"):
            make_scheduler(reduced, specs, executor="gpu")


class TestCanonicalOrder:
    def test_result_order_independent_of_schedule(self, reduced, specs):
        # Without predictions the jobs run in canonical order; a memory
        # model makes the plan predict, and they run largest first.
        base = make_scheduler(reduced, specs).run()
        ctx = RunContext(memory_model=MemoryModel(capacity_bytes=1 << 30))
        sched = make_scheduler(reduced, specs, context=ctx)
        lpt = [j.index for j in sched.scheduled(sched.plan())]
        assert lpt != sorted(lpt)
        run = make_scheduler(reduced, specs, context=ctx).run()
        assert [s.spec.subset_id for s in base.subsets] == [
            s.spec.subset_id for s in run.subsets
        ]
        assert np.array_equal(base.efms(), run.efms())

    def test_meta_reports_run_shape(self, reduced, specs):
        run = make_scheduler(reduced, specs).run()
        assert run.meta["executor"] == "inline"
        assert run.meta["n_jobs"] == len(specs)
        assert run.meta["refinements"] == []
        # One job at a time and no memory model: nothing reads a peak.
        assert run.meta["predicted_total_bytes"] is None
        assert run.meta["admission_budget"] is None

    def test_meta_reports_predictions_under_a_memory_model(self, reduced, specs):
        mm = MemoryModel(capacity_bytes=1 << 30)
        run = make_scheduler(
            reduced, specs, context=RunContext(memory_model=mm)
        ).run()
        assert run.meta["predicted_total_bytes"] > 0


class TestAdmissionBudget:
    def test_default_budget_is_capacity_times_workers(self, reduced, specs):
        mm = MemoryModel(capacity_bytes=1000)
        sched = make_scheduler(reduced, specs, context=RunContext(memory_model=mm))
        assert sched._admission_budget(executor_workers=4) == 4000

    def test_inline_reports_one_node_of_budget(self, reduced, specs):
        # Inline runs one job at a time, so its default budget is one
        # node's capacity, whatever the host's parallelism.
        mm = MemoryModel(capacity_bytes=1000)
        run = make_scheduler(reduced, specs, context=RunContext(memory_model=mm)).run()
        assert run.meta["admission_budget"] == 1000

    def test_no_model_no_budget(self, reduced, specs):
        assert (
            make_scheduler(reduced, specs)._admission_budget(executor_workers=2)
            is None
        )


class TestRefinement:
    def test_refinement_completes_under_tight_memory(self, reduced, specs):
        base = make_scheduler(reduced, specs).run()
        mm = MemoryModel(capacity_bytes=400)
        run = make_scheduler(
            reduced, specs, context=RunContext(memory_model=mm)
        ).run()
        assert run.complete
        assert run.meta["refinements"]
        assert run.meta["n_jobs"] == len(specs) + 2 * len(run.meta["refinements"])
        assert np.array_equal(
            canonical_rows(base.efms()), canonical_rows(run.efms())
        )

    @pytest.mark.parametrize("executor", ["inline", "process-pool"])
    def test_yeast2_under_the_table4_cap(self, executor):
        """yeast-II-small under a cap that Algorithm 2 dies against: the
        refined run finds the serial EFM set on either executor, and a
        cap nothing fits in raises naming the subsets."""
        from repro.errors import AlgorithmError
        from repro.models.variants import yeast_2_small

        net = yeast_2_small()
        serial = compute_efms(net)
        cap = MemoryModel(capacity_bytes=3_110_658)  # memory_limits.py's cap
        run = compute_efms(
            net, method="combined", partition=2, memory_model=cap,
            executor=executor, max_workers=2,
        )
        assert serial.same_modes_as(run)
        assert [r[1] for r in run.meta["scheduler"]["refinements"]] == [
            "R96r", "R89r", "R81r"
        ]
        with pytest.raises(AlgorithmError, match=r"\[.*R102r.*\] at iteration"):
            compute_efms(
                net, method="combined", partition=2, executor=executor,
                max_workers=2, memory_model=MemoryModel(capacity_bytes=20_000),
            )

    def test_refined_run_killed_after_a_child_resumes(
        self, reduced, tmp_path, monkeypatch
    ):
        """A checkpointed run killed after one refined child finished
        resumes from it to the same EFM set."""
        d = tmp_path / "ckpt"
        mm = MemoryModel(capacity_bytes=400)
        base = combined_parallel(reduced, PARTITION, 1)
        real_solve = executors_mod.solve_job
        children = []

        def dying_solve(order, job):
            if job.depth and children:
                raise RuntimeError("simulated kill after a refined child")
            res = real_solve(order, job)
            if job.depth and res.completed:
                children.append(job.spec)
            return res

        monkeypatch.setattr(executors_mod, "solve_job", dying_solve)
        with pytest.raises(RuntimeError, match="simulated kill"):
            combined_parallel(
                reduced, PARTITION, 1, memory_model=mm, checkpoint_dir=d
            )
        assert len(children) == 1
        monkeypatch.setattr(executors_mod, "solve_job", real_solve)
        resumed = combined_parallel(
            reduced, PARTITION, 1, memory_model=mm, checkpoint_dir=d
        )
        assert resumed.meta["refinements"]
        resumed_children = [
            s.spec for s in resumed.subsets if s.resumed and s.spec.q_sub > 2
        ]
        assert resumed_children == children
        assert np.array_equal(
            canonical_rows(base.efms()), canonical_rows(resumed.efms())
        )

    def test_record_keeps_oom_in_result(self, reduced, specs):
        mm = MemoryModel(capacity_bytes=100)
        run = combined_parallel(reduced, PARTITION, 1, memory_model=mm)
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
            SchedulerError, match=r"format version 4 \(expected 6\)"
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
