"""Execution engine: the run context and the subproblem scheduler.

This package is the seam between the pathway-analysis kernels (``core/``,
``dnc/``) and their execution substrate:

* :class:`~repro.engine.context.RunContext` — one object owning options,
  rank-test cache wiring, memory model, tracing, checkpoint configuration
  and statistics collection, constructed once per ``compute_efms`` call
  and consumed by every driver;
* :class:`~repro.engine.scheduler.SubproblemScheduler` — memory-aware
  dispatch of the ``2**q_sub`` divide-and-conquer subproblems over
  two executors (``inline`` and the work-stealing ``process-pool``),
  with an admission budget, refinement of a subset that runs out of
  memory, and subset-level checkpoint/resume.

The scheduler (and its executors) import the divide-and-conquer driver
stack, which itself consumes :mod:`repro.engine.context`; to keep that
one-directional at import time the scheduler symbols are loaded lazily.
"""

from __future__ import annotations

from repro.engine.context import RunContext, TraceRecorder

_LAZY = {
    "SubproblemScheduler": "repro.engine.scheduler",
    "SubsetJob": "repro.engine.scheduler",
    "ExecutorName": "repro.engine.executors",
    "get_executor": "repro.engine.executors",
    "EXECUTOR_NAMES": "repro.engine.executors",
}

__all__ = ["RunContext", "TraceRecorder", *_LAZY]


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
