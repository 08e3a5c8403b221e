"""Executors for the subproblem scheduler.

Two ways of running the divide-and-conquer subset jobs, both producing
bit-identical results because the scheduler assembles them in canonical
order regardless of completion order:

* ``"inline"`` — sequential, in-process; the reference executor and the
  legacy behaviour of ``combined_parallel``'s subset loop.
* ``"process-pool"`` — a fork-based work-stealing task farm: one shared
  task queue that idle workers pull from (so large jobs never strand small
  ones behind a static partition), plus master-side admission control
  that bounds the sum of *predicted* peak footprints in flight.

Executors are deliberately dumb: ordering, admission budgets, checkpoint
persistence and OOM degradation are all scheduler policy.  An executor
receives an already-scheduled job list and a picklable :class:`WorkOrder`
and returns ``{canonical index -> SubsetResult}``.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import TYPE_CHECKING, Callable, Literal

from repro.engine.context import RunContext
from repro.errors import SchedulerError
from repro.mpi.spmd import BackendName, available_parallelism, pin_to_cpu
from repro.network.model import MetabolicNetwork

if TYPE_CHECKING:  # pragma: no cover
    from repro.dnc.combined import SubsetResult
    from repro.engine.scheduler import SubsetJob

ExecutorName = Literal["inline", "process-pool"]

#: Every executor name, in documentation order.
EXECUTOR_NAMES: tuple[str, ...] = ("inline", "process-pool")

#: ``on_result(job, result)`` streaming callback (checkpoint persistence).
ResultCallback = Callable[["SubsetJob", "SubsetResult"], None]


@dataclasses.dataclass(frozen=True)
class WorkOrder:
    """Everything needed to solve *any* subset job of one run.

    Shipped to worker processes once (fork or pickle), so it must stay
    picklable — which :class:`~repro.engine.context.RunContext` guarantees.
    A forked context's shared rank memo is a private copy: fewer cache
    hits than the in-process executor, never wrong results.
    """

    reduced: MetabolicNetwork
    n_ranks: int
    backend: BackendName
    auto_split: bool
    context: RunContext


def solve_job(order: WorkOrder, job: "SubsetJob") -> "SubsetResult":
    """Solve one scheduled job with Algorithm 2 (the non-degraded path),
    reusing the blocked set the scheduler's plan screened for it."""
    from repro.dnc.combined import solve_subset  # noqa: PLC0415

    result = solve_subset(
        order.reduced,
        job.spec,
        order.n_ranks,
        backend=order.backend,
        auto_split=order.auto_split,
        context=order.context,
        blocked=job.blocked,
    )
    result.predicted_peak_bytes = job.predicted_peak_bytes
    return result


class InlineExecutor:
    """Run jobs sequentially in the calling process (reference executor)."""

    name = "inline"

    def __init__(
        self,
        order: WorkOrder,
        *,
        max_workers: int | None = None,
        admission_bytes: int | None = None,
    ) -> None:
        self.order = order

    def run(
        self,
        jobs: "list[SubsetJob]",
        on_result: ResultCallback | None = None,
    ) -> "dict[int, SubsetResult]":
        results: dict[int, SubsetResult] = {}
        for job in jobs:
            res = solve_job(self.order, job)
            results[job.index] = res
            if on_result is not None:
                on_result(job, res)
        return results


def _pool_worker(
    task_q, result_q, order: WorkOrder, index: int, n_workers: int
) -> None:
    """Worker loop: pull jobs until the ``None`` sentinel arrives.

    Pull-based dispatch *is* the work stealing: whichever worker goes idle
    takes the next job, so a skewed subset never serializes the rest
    behind a static assignment.  Exceptions are shipped back as messages —
    a worker never dies silently with a job in hand.  Worker ``index``
    runs on a CPU of its own when there are enough
    (:func:`~repro.mpi.spmd.pin_to_cpu`, as for process ranks), unless its
    jobs fork process ranks: those place themselves across the CPUs the
    worker inherits, so it keeps them all.
    """
    if order.n_ranks == 1 or order.backend != "process":
        pin_to_cpu(index, n_workers)
    while True:
        job = task_q.get()
        if job is None:
            return
        try:
            res = solve_job(order, job)
        except BaseException as exc:  # noqa: BLE001 - reported to the master
            result_q.put(("error", job.index, f"{type(exc).__name__}: {exc}"))
        else:
            result_q.put(("ok", job.index, res))


class ProcessPoolExecutor:
    """Fork-based work-stealing task farm with admission control.

    ``admission_bytes`` bounds the sum of the *predicted* peak footprints
    of dispatched-but-unfinished jobs — the scheduler's model of cluster
    memory.  A job larger than the whole budget still runs, but alone
    (progress guarantee).  Predictions are a-priori surrogates, so this is
    a soft budget; the hard per-rank budget remains the
    :class:`~repro.cluster.memory.MemoryModel` enforced inside each run.
    """

    name = "process-pool"

    def __init__(
        self,
        order: WorkOrder,
        *,
        max_workers: int | None = None,
        admission_bytes: int | None = None,
    ) -> None:
        self.order = order
        self.max_workers = effective_workers(self.name, max_workers)
        self.admission_bytes = admission_bytes

    def _admit(self, job: "SubsetJob", in_flight: dict[int, int]) -> bool:
        if self.admission_bytes is None or not in_flight:
            return True
        return (
            sum(in_flight.values()) + job.predicted_peak_bytes
            <= self.admission_bytes
        )

    def run(
        self,
        jobs: "list[SubsetJob]",
        on_result: ResultCallback | None = None,
    ) -> "dict[int, SubsetResult]":
        if not jobs:
            return {}
        import multiprocessing as mp  # noqa: PLC0415 - inline runs never fork

        n_workers = min(self.max_workers, len(jobs))
        ctx = mp.get_context("fork")
        task_q = ctx.Queue()
        result_q = ctx.Queue()
        # Not daemonic: a job on the process backend forks its ranks from
        # the worker.  The ``finally`` below joins or ends every worker.
        workers = [
            ctx.Process(
                target=_pool_worker,
                args=(task_q, result_q, self.order, i, n_workers),
            )
            for i in range(n_workers)
        ]
        for w in workers:
            w.start()

        pending = deque(jobs)  # already in schedule order
        in_flight: dict[int, int] = {}
        by_index = {job.index: job for job in jobs}
        results: dict[int, SubsetResult] = {}
        try:
            while pending or in_flight:
                while pending and self._admit(pending[0], in_flight):
                    job = pending.popleft()
                    in_flight[job.index] = job.predicted_peak_bytes
                    task_q.put(job)
                kind, index, payload = self._next_result(result_q, workers)
                if kind == "error":
                    raise SchedulerError(
                        f"subset job {index} failed in a pool worker: {payload}"
                    )
                in_flight.pop(index, None)
                results[index] = payload
                if on_result is not None:
                    on_result(by_index[index], payload)
        finally:
            for _ in workers:
                task_q.put(None)
            task_q.close()
            for w in workers:
                w.join(timeout=10)
                if w.is_alive():  # pragma: no cover - crash cleanup
                    w.terminate()
        return results

    @staticmethod
    def _next_result(result_q, workers):
        """Block for the next result, but notice a wholesale worker crash
        (e.g. the OOM killer) instead of hanging forever."""
        import queue as queue_mod  # noqa: PLC0415 - only a pool waits on a queue

        while True:
            try:
                return result_q.get(timeout=1.0)
            except queue_mod.Empty:
                if not any(w.is_alive() for w in workers):
                    raise SchedulerError(
                        "all pool workers exited with jobs still in flight"
                    ) from None


_EXECUTORS = {
    "inline": InlineExecutor,
    "process-pool": ProcessPoolExecutor,
}


def effective_workers(name: str, max_workers: int | None = None) -> int:
    """How many jobs executor ``name`` runs at a time: one inline, else
    ``max_workers`` (default: host parallelism, capped)."""
    if name == "inline":
        return 1
    return max_workers if max_workers else available_parallelism()


def get_executor(
    name: str,
    order: WorkOrder,
    *,
    max_workers: int | None = None,
    admission_bytes: int | None = None,
):
    """Instantiate an executor by name."""
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        raise SchedulerError(
            f"unknown executor {name!r}; available: {', '.join(EXECUTOR_NAMES)}"
        ) from None
    return cls(order, max_workers=max_workers, admission_bytes=admission_bytes)
