"""Memory-aware scheduler for divide-and-conquer subproblems.

Algorithm 3 makes the 2^q subsets of a partition *independent* — the
paper exploits this by submitting each as a separate Blue Gene/P job
(Table IV).  This module is the single-machine analogue of that job
queue.  It replaces the sequential subset loop that used to live in
``combined_parallel`` with an explicit plan-schedule-dispatch pipeline:

1. **plan** — screen the whole partition for blocked reactions in one
   pass over its subset lattice
   (:func:`~repro.dnc.combined.screen_subsets`), then predict every
   surviving subset's peak mode-matrix footprint with the
   :func:`~repro.cluster.memory.predict_subset_peak_bytes` surrogate
   (one rank computation per subset, no kernel build) — but only when a
   decision reads the predictions: when the executor runs more than one
   job at a time (LPT order, pool admission) or the context has a memory
   model (admission budget, the ``on_oom="degrade"`` pre-screen).
   Screened subsets are empty: they are never predicted, scheduled or
   dispatched;
2. **schedule** — order the jobs: ``"predicted-peak"`` (largest first,
   the LPT makespan heuristic) or an explicit index permutation (used by
   the equivalence tests to prove schedule independence);
3. **dispatch** — hand the ordered jobs to one of the two executors
   (:mod:`repro.engine.executors`), with an admission budget bounding the
   predicted bytes in flight;
4. **isolate failures** — with ``on_oom="degrade"``, a subset that
   exceeds the modeled node memory (or is predicted to) re-runs on one
   rank, checkpointed and without memory enforcement, instead of
   aborting the run;
5. **persist** — with a checkpoint directory, each completed subset is
   written as it finishes and a rerun resumes from what survived.

Whatever the executor, schedule or failure history, :meth:`run` returns
the subsets in canonical (spec enumeration) order, so the EFM union is
bit-identical across all execution strategies.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Literal, Sequence, Union

import numpy as np

from repro.cluster.memory import predict_subset_peak_bytes
from repro.dnc.combined import (
    CombinedRunResult,
    SubsetResult,
    screen_subsets,
    solve_subset,
)
from repro.dnc.subsets import SubsetSpec
from repro.engine.context import RunContext
from repro.engine.executors import (
    EXECUTOR_NAMES,
    WorkOrder,
    effective_workers,
    get_executor,
)
from repro.errors import SchedulerError
from repro.mpi.spmd import BackendName
from repro.network.model import MetabolicNetwork
from repro.network.stoichiometry import stoichiometric_matrix

ScheduleName = Literal["predicted-peak"]
Schedule = Union[ScheduleName, Sequence[int]]
OnOom = Literal["record", "degrade"]

#: Manifest format version.  Version 3 dropped the rank tolerance from the
#: run fingerprint (rank decisions are exact).  Version 4 dropped the
#: float-or-rational mode choice and the float support threshold from it
#: (modes are exact integers) and stores each subset's certified-mode
#: count.  Version 5 dropped the choice of candidate test from it (the rank
#: test is the only one).
_CHECKPOINT_VERSION = 5


@dataclasses.dataclass(frozen=True)
class SubsetJob:
    """One schedulable unit: a subset plus its planning metadata.

    ``index`` is the job's slot in the run's *canonical* result order (the
    position of its spec in the scheduler's spec list), independent of
    where the schedule places it or which worker solves it.  ``blocked``
    is the subset's blocked-reaction set from the plan's screen; a
    ``screened`` job is proven empty, predicts 0 bytes and never reaches
    an executor.  A surviving job's ``predicted_peak_bytes`` is ``None``
    when no decision of the run reads it (see
    :attr:`SubproblemScheduler.predicts_peaks`).
    """

    index: int
    spec: SubsetSpec
    predicted_peak_bytes: int | None
    blocked: frozenset[str] = frozenset()
    screened: bool = False


class SubproblemScheduler:
    """Plan, order, dispatch and repair one divide-and-conquer run.

    Parameters
    ----------
    reduced, specs:
        The reduced network and the subset specs to solve (typically
        ``enumerate_subsets(partition)``, possibly filtered).
    context:
        The run's :class:`~repro.engine.context.RunContext`.  Its memory
        model sets both the per-rank enforcement budget and the default
        admission budget; its ``checkpoint_path`` is the default
        checkpoint directory.
    executor, max_workers:
        Dispatch strategy (see :mod:`repro.engine.executors`) and its
        worker count (default: host parallelism, capped).
    schedule:
        Job ordering policy, or an explicit permutation of job indices.
    admission_bytes:
        Cap on the sum of predicted peak footprints in flight
        concurrently; default ``capacity_bytes * workers`` when a memory
        model is present, else unlimited.
    on_oom:
        ``"record"`` keeps a failed subset's ``OutOfMemoryError`` in its
        result (legacy behaviour; feeds the adaptive refiner);
        ``"degrade"`` re-runs failed (and too-big-to-admit) subsets on
        one rank, checkpointed and without memory enforcement, so the run
        completes.
    checkpoint_dir:
        Directory for per-subset result persistence and resume.
    """

    def __init__(
        self,
        reduced: MetabolicNetwork,
        specs: Sequence[SubsetSpec],
        *,
        context: RunContext | None = None,
        n_ranks: int = 1,
        backend: BackendName = "sequential",
        auto_split: bool = True,
        executor: str = "inline",
        max_workers: int | None = None,
        schedule: Schedule = "predicted-peak",
        admission_bytes: int | None = None,
        on_oom: str = "record",
        checkpoint_dir: str | Path | None = None,
    ) -> None:
        if executor not in EXECUTOR_NAMES:
            raise SchedulerError(
                f"unknown executor {executor!r}; available: "
                f"{', '.join(EXECUTOR_NAMES)}"
            )
        if on_oom not in ("record", "degrade"):
            raise SchedulerError(
                f"on_oom must be 'record' or 'degrade', got {on_oom!r}"
            )
        self.reduced = reduced
        self.specs = list(specs)
        self.context = RunContext.ensure(context)
        self.n_ranks = n_ranks
        self.backend: BackendName = backend
        self.auto_split = auto_split
        self.executor_name = executor
        self.max_workers = max_workers
        self.schedule: Schedule = schedule
        self.admission_bytes = admission_bytes
        self.on_oom = on_oom
        #: how many jobs the executor runs at a time.
        self.workers = effective_workers(executor, max_workers)
        if checkpoint_dir is None:
            checkpoint_dir = self.context.checkpoint_path
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        #: :meth:`plan`'s screen work, reported in the run's ``meta``.
        self.screen_counts: dict[str, int] = {}

    # -- planning ------------------------------------------------------------

    @property
    def predicts_peaks(self) -> bool:
        """Whether :meth:`plan` predicts survivors' peaks: only when a
        decision reads them.  LPT order and pool admission matter only
        when more than one job runs at a time; the default admission
        budget and the ``on_oom="degrade"`` pre-screen need a memory
        model.  Otherwise jobs run in canonical order."""
        return self.workers > 1 or self.context.memory_model is not None

    def plan(self) -> list[SubsetJob]:
        """Screen every subset, then predict each survivor's footprint
        (when :attr:`predicts_peaks`); jobs come back in canonical
        (spec-list) order.

        Also sets :attr:`screen_counts`: how many subsets had their blocked
        set computed, and how many a smaller zero set decided.
        """
        blocked, n_computed = screen_subsets(
            self.reduced, self.specs, context=self.context
        )
        self.screen_counts = {
            "screen_computed": n_computed,
            "screen_inherited": len(self.specs) - n_computed,
        }
        wf = (
            self.context.memory_model.working_factor
            if self.context.memory_model is not None
            else 1.5
        )
        opts = self.context.options
        predict = self.predicts_peaks
        jobs = []
        for i, (spec, dead) in enumerate(zip(self.specs, blocked)):
            screened = not dead.isdisjoint(spec.nonzero)
            if screened:
                peak = 0
            elif not predict:
                peak = None
            else:
                peak = predict_subset_peak_bytes(
                    self.reduced,
                    spec,
                    working_factor=wf,
                    pair_chunk=opts.pair_chunk,
                    ordering=opts.ordering,
                )
            jobs.append(SubsetJob(i, spec, peak, blocked=dead, screened=screened))
        return jobs

    def scheduled(self, jobs: Sequence[SubsetJob]) -> list[SubsetJob]:
        """Order ``jobs`` per the schedule policy.

        Ties in ``"predicted-peak"`` break on the canonical index so the
        schedule is deterministic, and unpredicted jobs keep canonical
        order.  An explicit schedule must be a permutation of *all* job
        indices of the run; jobs already resumed from a checkpoint are
        simply absent from ``jobs`` and skipped.
        """
        if isinstance(self.schedule, str):
            if self.schedule == "predicted-peak":
                return sorted(
                    jobs, key=lambda j: (-(j.predicted_peak_bytes or 0), j.index)
                )
            raise SchedulerError(
                f"unknown schedule {self.schedule!r}; expected "
                "'predicted-peak' or an index permutation"
            )
        order = [int(i) for i in self.schedule]
        if sorted(order) != list(range(len(self.specs))):
            raise SchedulerError(
                "explicit schedule must be a permutation of "
                f"0..{len(self.specs) - 1}, got {order!r}"
            )
        by_index = {job.index: job for job in jobs}
        return [by_index[i] for i in order if i in by_index]

    # -- checkpoint persistence ----------------------------------------------

    def _fingerprint(self) -> str:
        """Identity of this run's inputs: network, subsets and the options
        that affect results.  A checkpoint directory written under a
        different fingerprint must not be resumed from."""
        h = hashlib.sha256()
        n = stoichiometric_matrix(self.reduced)
        h.update(np.ascontiguousarray(n, dtype=np.float64).tobytes())
        h.update("|".join(self.reduced.reaction_names).encode())
        h.update(
            "".join("R" if r else "I" for r in self.reduced.reversibility).encode()
        )
        h.update("|".join(spec.label() for spec in self.specs).encode())
        o = self.context.options
        h.update(o.ordering.encode())
        return h.hexdigest()

    def _subset_file(self, spec: SubsetSpec) -> Path:
        assert self.checkpoint_dir is not None
        return self.checkpoint_dir / f"subset_{spec.subset_id:05d}.npz"

    def _prepare_checkpoint_dir(self) -> None:
        import json  # noqa: PLC0415 - only checkpointed runs need it

        assert self.checkpoint_dir is not None
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        manifest = self.checkpoint_dir / "manifest.json"
        fingerprint = self._fingerprint()
        if manifest.exists():
            meta = json.loads(manifest.read_text())
            version = meta.get("version")
            if version != _CHECKPOINT_VERSION:
                raise SchedulerError(
                    f"checkpoint directory {self.checkpoint_dir} has "
                    f"checkpoint format version {version} (expected "
                    f"{_CHECKPOINT_VERSION}); refusing to mix results"
                )
            if meta.get("fingerprint") != fingerprint:
                raise SchedulerError(
                    f"checkpoint directory {self.checkpoint_dir} belongs to a "
                    "different run (network, subsets or options changed); "
                    "refusing to mix results"
                )
            return
        manifest.write_text(
            json.dumps(
                {
                    "version": _CHECKPOINT_VERSION,
                    "fingerprint": fingerprint,
                    "n_subsets": len(self.specs),
                }
            )
        )

    def _save_result(self, job: SubsetJob, res: SubsetResult) -> None:
        if self.checkpoint_dir is None or res.oom is not None:
            return
        path = self._subset_file(job.spec)
        tmp = path.with_suffix(".tmp.npz")
        np.savez(
            tmp,
            efms=res.efms,
            certified=np.int64(res.certified),
            wall_time=np.float64(res.wall_time),
            degraded=np.int64(res.degraded),
            screened=np.int64(res.screened),
        )
        tmp.replace(path)  # atomic: a crash never leaves a torn subset file

    def _load_resumed(self, jobs: Sequence[SubsetJob]) -> dict[int, SubsetResult]:
        resumed: dict[int, SubsetResult] = {}
        for job in jobs:
            path = self._subset_file(job.spec)
            if not path.exists():
                continue
            with np.load(path) as data:
                resumed[job.index] = SubsetResult(
                    spec=job.spec,
                    efms=np.ascontiguousarray(data["efms"]),
                    certified=int(data["certified"]),
                    stats=None,
                    rank_traces=[],
                    wall_time=float(data["wall_time"]),
                    degraded=bool(data["degraded"]),
                    screened=bool(data["screened"]),
                    resumed=True,
                    predicted_peak_bytes=job.predicted_peak_bytes,
                )
        return resumed

    # -- degradation ---------------------------------------------------------

    def _degrade(self, job: SubsetJob) -> SubsetResult:
        """Re-run one subset on one rank, memory recorded but not
        enforced, snapshotting to resume from (slow beats dead)."""
        ckpt = (
            self.checkpoint_dir / f"subset_{job.spec.subset_id:05d}_serial.npz"
            if self.checkpoint_dir is not None
            else None
        )
        dry_memory = self.context.fresh_memory()
        if dry_memory is not None:
            dry_memory.enforcing = False
        res = solve_subset(
            self.reduced,
            job.spec,
            1,
            auto_split=self.auto_split,
            context=dataclasses.replace(self.context, memory_model=dry_memory),
            blocked=job.blocked,
            checkpoint_path=ckpt,
        )
        res.degraded = True
        res.predicted_peak_bytes = job.predicted_peak_bytes
        if ckpt is not None and ckpt.exists():
            ckpt.unlink()  # the subset finished; the row-level snapshot is spent
        return res

    # -- the run -------------------------------------------------------------

    def run(self) -> CombinedRunResult:
        """Plan, dispatch and repair every subset.

        The result's ``meta`` reports the executor and schedule; the job,
        resumed and degraded counts; the admission budget;
        ``predicted_total_bytes``, the sum of the *surviving* subsets'
        predicted peaks (screened subsets predict 0; ``None`` when the
        plan predicted nothing); and the plan's
        ``screen_computed`` / ``screen_inherited`` counts (subsets whose
        blocked set was computed / decided by a smaller zero set).
        """
        jobs = self.plan()

        results: dict[int, SubsetResult] = {}
        if self.checkpoint_dir is not None:
            self._prepare_checkpoint_dir()
            results = self._load_resumed(jobs)
        n_resumed = len(results)
        # Screened subsets are empty by proof: record them without any
        # work (checkpointed, so a resume counts them as resumed).
        for job in jobs:
            if job.screened and job.index not in results:
                res = SubsetResult.empty(
                    job.spec, self.reduced.n_reactions, screened=True
                )
                res.predicted_peak_bytes = job.predicted_peak_bytes
                results[job.index] = res
                self._save_result(job, res)
        pending = [job for job in jobs if job.index not in results]

        # Admission pre-screen: a subset predicted to blow a single node's
        # budget goes straight to the degraded path — running it through
        # Algorithm 2 first would only burn the time until the OOM.
        pre_degraded: list[SubsetJob] = []
        mm = self.context.memory_model
        if self.on_oom == "degrade" and mm is not None and mm.enforcing:
            cap = int(mm.capacity_bytes)
            pre_degraded = [j for j in pending if j.predicted_peak_bytes > cap]
            pending = [j for j in pending if j.predicted_peak_bytes <= cap]

        order = WorkOrder(
            reduced=self.reduced,
            n_ranks=self.n_ranks,
            backend=self.backend,
            auto_split=self.auto_split,
            context=self.context,
        )
        executor = get_executor(
            self.executor_name,
            order,
            max_workers=self.max_workers,
            admission_bytes=self._admission_budget(self.workers),
        )
        solved = executor.run(self.scheduled(pending), on_result=self._save_result)
        missing = {j.index for j in pending} - set(solved)
        if missing:  # pragma: no cover - executor contract violation
            raise SchedulerError(
                f"executor {self.executor_name!r} returned no result for "
                f"jobs {sorted(missing)}"
            )
        results.update(solved)

        n_degraded = 0
        if self.on_oom == "degrade":
            retry = pre_degraded + [
                job for job in jobs
                if job.index in results and results[job.index].oom is not None
            ]
            for job in retry:
                res = self._degrade(job)
                results[job.index] = res
                self._save_result(job, res)
                n_degraded += 1

        subsets = [results[job.index] for job in jobs]  # canonical order
        meta = {
            "executor": self.executor_name,
            "schedule": self.schedule
            if isinstance(self.schedule, str)
            else list(self.schedule),
            "n_jobs": len(jobs),
            "n_resumed": n_resumed,
            "n_degraded": n_degraded,
            "admission_bytes": self._admission_budget(self.workers),
            "predicted_total_bytes": sum(j.predicted_peak_bytes for j in jobs)
            if self.predicts_peaks
            else None,
            **self.screen_counts,
        }
        return CombinedRunResult(network=self.reduced, subsets=subsets, meta=meta)

    def _admission_budget(self, executor_workers: int) -> int | None:
        """Default admission budget: one node's capacity per job the
        executor runs at a time (i.e. the modeled cluster memory).
        Explicit ``admission_bytes`` wins."""
        if self.admission_bytes is not None:
            return self.admission_bytes
        if self.context.memory_model is None:
            return None
        return int(self.context.memory_model.capacity_bytes) * executor_workers
