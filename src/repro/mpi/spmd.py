"""SPMD launcher: one entry point over the two engines."""

from __future__ import annotations

import os
from typing import Any, Callable, Literal, get_args

from repro.errors import CommunicatorError
from repro.mpi.comm import Communicator

BackendName = Literal["sequential", "process"]


def allowed_cpus() -> list[int]:
    """The CPUs this process may run on, in ascending order (its affinity
    mask; every CPU of the host where the platform has no such mask)."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def available_parallelism(cap: int = 8) -> int:
    """Usable worker-process count on this host, capped.

    The subproblem scheduler's default ``max_workers``: the scheduling
    overhead of more workers than CPUs is pure loss for the CPU-bound
    rank-test phases, and benchmark hosts vary from 1-core CI runners to
    large shared machines, so this clamps the number of CPUs the process
    may use (:func:`allowed_cpus`, so ``taskset`` counts) to ``[1, cap]``.
    """
    return max(1, min(cap, len(allowed_cpus())))


def pin_to_cpu(index: int, n_procs: int) -> None:
    """Pin the calling process to the ``index``-th of its allowed CPUs,
    when those CPUs number at least ``n_procs``.

    Worker ``index`` of ``n_procs`` forked workers (a process rank, a pool
    worker) calls this first thing: each then computes on a CPU of its
    own, where the kernel's scheduler may otherwise leave two of them
    sharing one for a whole run.  With fewer CPUs than workers nothing is
    pinned and each keeps the parent's set.
    """
    cpus = allowed_cpus()
    if hasattr(os, "sched_setaffinity") and len(cpus) >= n_procs:
        os.sched_setaffinity(0, {cpus[index]})


def get_engine(backend: BackendName, *, comm_timeout: float | None = None):
    """Instantiate an engine by name (lazy imports keep multiprocessing out
    of sequential-only runs).

    ``comm_timeout`` defaults from ``REPRO_COMM_TIMEOUT_S`` when ``None``.
    """
    if backend == "sequential":
        from repro.mpi.sequential import SequentialEngine  # noqa: PLC0415

        return SequentialEngine(comm_timeout=comm_timeout)
    if backend == "process":
        from repro.mpi.process import ProcessEngine  # noqa: PLC0415

        return ProcessEngine(comm_timeout=comm_timeout)
    available = ", ".join(get_args(BackendName))
    raise CommunicatorError(f"unknown backend {backend!r}; available: {available}")


def run_spmd(
    fn: Callable[..., Any],
    size: int,
    *,
    backend: BackendName = "sequential",
    args: tuple = (),
    kwargs: dict | None = None,
    comm_timeout: float | None = None,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` ranks; returns the
    per-rank return values.

    ``backend="sequential"`` is deterministic and single-threaded (the
    default, and the right choice for modeled-time benchmarks);
    ``"process"`` uses real OS processes (picklable ``fn``/``args``
    required).
    """
    if size < 1:
        raise CommunicatorError("size must be >= 1")
    engine = get_engine(backend, comm_timeout=comm_timeout)
    return engine.run(fn, size, args=args, kwargs=kwargs or {})


__all__ = [
    "run_spmd",
    "get_engine",
    "allowed_cpus",
    "available_parallelism",
    "pin_to_cpu",
    "BackendName",
    "Communicator",
]
