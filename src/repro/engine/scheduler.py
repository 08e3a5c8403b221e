"""Memory-aware scheduler for divide-and-conquer subproblems.

Algorithm 3 makes the 2^q subsets of a partition *independent* — the
paper exploits this by submitting each as a separate Blue Gene/P job
(Table IV).  This module is the single-machine analogue of that job
queue, and the one subset loop of Algorithm 3:

1. **plan** — screen the subsets for blocked reactions in one pass over
   their subset lattice (:func:`~repro.dnc.combined.screen_subsets`),
   then predict every surviving subset's peak mode-matrix footprint with
   the :func:`~repro.cluster.memory.predict_subset_peak_bytes` surrogate
   (one rank computation per subset, no kernel build) — but only when a
   decision reads the predictions: when the executor runs more than one
   job at a time (LPT order, pool admission) or the context has a memory
   model (admission budget).  Screened subsets are empty: they are never
   predicted, scheduled or dispatched;
2. **schedule** — order the jobs largest predicted footprint first (the
   LPT makespan heuristic); unpredicted jobs keep canonical order;
3. **dispatch** — hand the ordered jobs to one of the two executors
   (:mod:`repro.engine.executors`), with an admission budget bounding the
   predicted bytes in flight;
4. **refine** — a subset that exceeds the modeled node memory is
   replaced by the two children of :meth:`~repro.dnc.subsets.SubsetSpec.refine`,
   split by one more reaction (:func:`~repro.dnc.subsets.refinement_reaction`),
   which are planned and dispatched in turn: the paper's manual
   3 -> 4-reaction step of Table IV, automated as §IV.C asks.  A subset
   still out of memory after :data:`MAX_REFINE_DEPTH` added reactions
   keeps its ``OutOfMemoryError`` in the result;
5. **persist** — with a checkpoint directory, each completed subset is
   written as it finishes and a rerun resumes from what survived.

Whatever the executor, dispatch order or refinement history, :meth:`run`
returns the subsets in canonical order (spec enumeration order, a refined
subset's children in its slot, zero child first), so the EFM union is
bit-identical across all execution strategies.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.cluster.memory import predict_subset_peak_bytes
from repro.dnc.combined import (
    CombinedRunResult,
    SubsetResult,
    _debug,
    screen_subsets,
)
from repro.dnc.subsets import SubsetSpec, refinement_reaction
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

#: How many reactions refinement may add to a subset of the initial
#: partition (the paper needed one: 3 -> 4 reactions).
MAX_REFINE_DEPTH = 4

#: Manifest format version.  Version 3 dropped the rank tolerance from the
#: run fingerprint (rank decisions are exact).  Version 4 dropped the
#: float-or-rational mode choice and the float support threshold from it
#: (modes are exact integers) and stores each subset's certified-mode
#: count.  Version 5 dropped the choice of candidate test from it (the rank
#: test is the only one).  Version 6 names subset files by partition and
#: id (refined subsets repeat ids) and no longer flags one-rank re-runs.
_CHECKPOINT_VERSION = 6


@dataclasses.dataclass(frozen=True)
class SubsetJob:
    """One schedulable unit: a subset plus its planning metadata.

    ``index`` identifies the job within the run (the position of its spec
    in the scheduler's spec list; refined children get the next free
    indices), independent of where the schedule places it or which worker
    solves it.  ``blocked`` is the subset's blocked-reaction set from the
    plan's screen; a ``screened`` job is proven empty, predicts 0 bytes
    and never reaches an executor.  A surviving job's
    ``predicted_peak_bytes`` is ``None`` when no decision of the run reads
    it (see :attr:`SubproblemScheduler.predicts_peaks`).  ``depth`` counts
    the reactions refinement added to the subset.
    """

    index: int
    spec: SubsetSpec
    predicted_peak_bytes: int | None
    blocked: frozenset[str] = frozenset()
    screened: bool = False
    depth: int = 0


class SubproblemScheduler:
    """Plan, order, dispatch and refine one divide-and-conquer run.

    Parameters
    ----------
    reduced, specs:
        The reduced network and the subset specs to solve (typically
        ``enumerate_subsets(partition)``, possibly filtered).
    context:
        The run's :class:`~repro.engine.context.RunContext`.  Its memory
        model sets both the per-rank enforcement budget and the admission
        budget (``capacity_bytes`` per job in flight); its
        ``checkpoint_path`` is the default checkpoint directory.
    executor, max_workers:
        Dispatch strategy (see :mod:`repro.engine.executors`) and its
        worker count (default: host parallelism, capped).
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
        checkpoint_dir: str | Path | None = None,
    ) -> None:
        if executor not in EXECUTOR_NAMES:
            raise SchedulerError(
                f"unknown executor {executor!r}; available: "
                f"{', '.join(EXECUTOR_NAMES)}"
            )
        self.reduced = reduced
        self.specs = list(specs)
        self.context = RunContext.ensure(context)
        self.n_ranks = n_ranks
        self.backend: BackendName = backend
        self.auto_split = auto_split
        self.executor_name = executor
        self.max_workers = max_workers
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
        when more than one job runs at a time; the admission budget needs
        a memory model.  Otherwise jobs run in canonical order."""
        return self.workers > 1 or self.context.memory_model is not None

    def plan(
        self, parent: SubsetJob | None = None, extra: str = "", first: int = 0
    ) -> list[SubsetJob]:
        """Screen subsets, then predict each survivor's footprint (when
        :attr:`predicts_peaks`); jobs come back in canonical order.

        Without ``parent`` the subsets are the scheduler's spec list,
        indexed from 0.  Given the ``parent`` job and an ``extra``
        reaction, they are the parent's two refined children, indexed
        from ``first``: the non-zero child shares the parent's zero set
        and takes its blocked set without a screen, the zero child
        inherits it (see :func:`~repro.dnc.combined.screen_subsets`).

        Sets (without ``parent``) or adds to (with one)
        :attr:`screen_counts`: how many subsets had their blocked set
        computed, and how many a smaller zero set decided.
        """
        if parent is None:
            specs, known, depth = self.specs, (), 0
            self.screen_counts = {"screen_computed": 0, "screen_inherited": 0}
        else:
            specs = list(parent.spec.refine(extra))
            known = ((frozenset(parent.spec.zero), parent.blocked),)
            depth = parent.depth + 1
        blocked, n_computed = screen_subsets(
            self.reduced, specs, context=self.context, known=known
        )
        self.screen_counts["screen_computed"] += n_computed
        self.screen_counts["screen_inherited"] += len(specs) - n_computed
        wf = (
            self.context.memory_model.working_factor
            if self.context.memory_model is not None
            else 1.5
        )
        opts = self.context.options
        predict = self.predicts_peaks
        jobs = []
        for i, (spec, dead) in enumerate(zip(specs, blocked), start=first):
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
            jobs.append(
                SubsetJob(i, spec, peak, blocked=dead, screened=screened, depth=depth)
            )
        return jobs

    @staticmethod
    def scheduled(jobs: Sequence[SubsetJob]) -> list[SubsetJob]:
        """Order ``jobs`` largest predicted peak first (LPT).  Ties break
        on the job index so the schedule is deterministic, and unpredicted
        jobs keep canonical order."""
        return sorted(jobs, key=lambda j: (-(j.predicted_peak_bytes or 0), j.index))

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
        """A subset's result file, named by its partition and id: refined
        subsets repeat the ids of the initial partition."""
        assert self.checkpoint_dir is not None
        key = hashlib.sha256("|".join(spec.partition).encode()).hexdigest()[:12]
        return self.checkpoint_dir / f"subset_{key}_{spec.subset_id:05d}.npz"

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
                    screened=bool(data["screened"]),
                    resumed=True,
                    predicted_peak_bytes=job.predicted_peak_bytes,
                )
        return resumed

    # -- the run -------------------------------------------------------------

    def run(self) -> CombinedRunResult:
        """Plan, dispatch and refine every subset.

        Jobs run in waves on one executor: the initial subsets, then the
        children of those that ran out of memory, and so on.  The
        result's ``meta`` reports the executor; the job and resumed
        counts (children included); the admission budget;
        ``predicted_total_bytes``, the sum of every job's predicted peak
        (screened subsets predict 0; ``None`` when the plan predicted
        nothing); the plan's ``screen_computed`` / ``screen_inherited``
        counts (subsets whose blocked set was computed / decided by a
        smaller zero set); and ``refinements``, one ``(parent label,
        added reaction, OOM iteration, required bytes)`` per refined
        subset.
        """
        jobs = self.plan()
        if self.checkpoint_dir is not None:
            self._prepare_checkpoint_dir()
        budget = self._admission_budget(self.workers)
        order = WorkOrder(
            reduced=self.reduced,
            n_ranks=self.n_ranks,
            backend=self.backend,
            auto_split=self.auto_split,
            context=self.context,
        )
        executor = get_executor(
            self.executor_name, order, max_workers=self.max_workers, budget=budget
        )
        canonical = [job.index for job in jobs]
        next_index = len(jobs)
        results: dict[int, SubsetResult] = {}
        refinements: list[tuple[str, str, int | None, int | None]] = []
        n_jobs = n_resumed = 0
        predicted = 0
        while jobs:
            n_jobs += len(jobs)
            if self.predicts_peaks:
                predicted += sum(j.predicted_peak_bytes for j in jobs)
            wave = self._run_wave(jobs, executor)
            n_resumed += sum(res.resumed for res in wave.values())
            results.update(wave)
            children: list[SubsetJob] = []
            for job in jobs:
                oom = wave[job.index].oom
                if oom is None or job.depth >= MAX_REFINE_DEPTH:
                    continue
                extra = refinement_reaction(job.spec, self.reduced)
                refinements.append(
                    (job.spec.label(), extra, oom.iteration, oom.required_bytes)
                )
                _debug(
                    "subset %s out of memory at iteration %s: refined with %s",
                    job.spec.label(),
                    oom.iteration,
                    extra,
                )
                pair = self.plan(job, extra, first=next_index)
                next_index += len(pair)
                at = canonical.index(job.index)
                canonical[at : at + 1] = [child.index for child in pair]
                del results[job.index]
                children += pair
            jobs = children

        meta = {
            "executor": self.executor_name,
            "n_jobs": n_jobs,
            "n_resumed": n_resumed,
            "admission_budget": budget,
            "predicted_total_bytes": predicted if self.predicts_peaks else None,
            **self.screen_counts,
            "refinements": refinements,
        }
        return CombinedRunResult(
            network=self.reduced,
            subsets=[results[i] for i in canonical],
            meta=meta,
        )

    def _run_wave(self, jobs: Sequence[SubsetJob], executor) -> dict[int, SubsetResult]:
        """Results of ``jobs``: resumed from the checkpoint, empty when
        screened, else solved on ``executor``."""
        results = self._load_resumed(jobs) if self.checkpoint_dir is not None else {}
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
        solved = executor.run(self.scheduled(pending), on_result=self._save_result)
        missing = {j.index for j in pending} - set(solved)
        if missing:  # pragma: no cover - executor contract violation
            raise SchedulerError(
                f"executor {self.executor_name!r} returned no result for "
                f"jobs {sorted(missing)}"
            )
        results.update(solved)
        return results

    def _admission_budget(self, executor_workers: int) -> int | None:
        """Admission budget: one node's capacity per job the executor runs
        at a time (i.e. the modeled cluster memory); none without a
        memory model."""
        if self.context.memory_model is None:
            return None
        return int(self.context.memory_model.capacity_bytes) * executor_workers
