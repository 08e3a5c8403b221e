"""Outside-in span tracer for the end-to-end benchmark.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the module and class attributes that the program's callers look up at
call time (``repro.efm.api.compress_network``,
``repro.core.kernel.kernel_identity_form``, ...) with wrappers that record
a span around each call, count calls, and keep the ``RunStats`` the
enumeration drivers return.  It is only ever called inside a forked solve
process that exits afterwards, so the patches are never undone.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span.  The sequential SPMD backend runs its ranks on worker
threads; a span opened on a thread with no open span of its own takes the
innermost open span of the solving thread (the thread that opened the
first span) as its parent.
"""

from __future__ import annotations

import collections
import functools
import threading
import time

#: Span names of the layers, as reported (``<name>_s`` or ``<name>_pct``).
COMPRESS = "network.compress"
SELECT_PARTITION = "dnc.select_partition"
PREPARE = "dnc.prepare"
PLAN = "engine.plan"
KERNEL = "core.kernel"
ENUMERATE = "core.enumerate"
SELECT_ROW = "core.ordering.select"
FINISH = "efm.finish"

#: Call counters, named as the per-layer metrics they become.
PREPARE_CALLS = "dnc.prepare_calls"
EMPTY_SUBSETS = "dnc.empty_subsets"
SPLIT_RETRIES = "dnc.split_retries"
RANK_TEST_CALLS = "core.ranktest.calls"
COUNTERS = (PREPARE_CALLS, EMPTY_SUBSETS, SPLIT_RETRIES, RANK_TEST_CALLS)


class Recorder:
    """In-memory spans, call counters and returned run statistics."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._children: dict[int | None, list[int]] = collections.defaultdict(list)
        self.counts: collections.Counter[str] = collections.Counter()
        #: one entry per enumeration call: the per-rank ``RunStats`` list.
        self.rank_stats: list[list] = []
        self._local = threading.local()
        self._root_stack: list[int] | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._children[parent].append(index)
        stack.append(index)
        if self._root_stack is None:
            self._root_stack = stack
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def duration(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return end - start

    def children(self, index: int) -> list[int]:
        return self._children.get(index, [])

    def self_time(self, index: int) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        cursor = self.spans[index][1]
        for _, start, end, _ in sorted(
            (self.spans[i] for i in self.children(index)), key=lambda s: s[1]
        ):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return self.duration(index) - covered

    def layer_seconds(self) -> dict[str, float]:
        """Total duration per span name, counting only spans with no
        ancestor of the same name (so nesting never double counts)."""
        totals: dict[str, float] = collections.defaultdict(float)
        for index, (name, _, _, parent) in enumerate(self.spans):
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                totals[name] += self.duration(index)
        return dict(totals)


def _span(rec: Recorder, name: str, fn, on_return=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if on_return is not None:
            on_return(out)
        return out

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _retries_counted(rec: Recorder, fn, errors: tuple[type, ...]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except errors:
            rec.counts[SPLIT_RETRIES] += 1
            raise

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.core.iterstream as iterstream  # noqa: PLC0415
    import repro.core.kernel as kernel  # noqa: PLC0415
    import repro.core.serial as serial  # noqa: PLC0415
    import repro.dnc.combined as combined  # noqa: PLC0415
    import repro.efm.api as api  # noqa: PLC0415
    from repro.core.ordering import RowSelector  # noqa: PLC0415
    from repro.efm.result import EFMResult  # noqa: PLC0415
    from repro.efm.splitting import SplitRecord  # noqa: PLC0415
    from repro.engine.scheduler import SubproblemScheduler  # noqa: PLC0415
    from repro.errors import (  # noqa: PLC0415
        DependentPartitionError,
        ReversibleIdentityError,
    )
    from repro.network.compression import CompressionRecord  # noqa: PLC0415

    def keep_stats(out) -> None:
        # NullspaceResult carries one RunStats, ParallelRunResult one per rank.
        rec.rank_stats.append(
            list(out.rank_stats) if hasattr(out, "rank_stats") else [out.stats]
        )

    def note_prepared(prep) -> None:
        rec.counts[PREPARE_CALLS] += 1
        if prep.problem is None:
            rec.counts[EMPTY_SUBSETS] += 1

    def patch(owner, attr, make) -> None:
        setattr(owner, attr, make(getattr(owner, attr)))

    def spanned(name, on_return=None):
        return lambda fn: _span(rec, name, fn, on_return)

    patch(api, "compress_network", spanned(COMPRESS))
    patch(api, "select_partition_reactions", spanned(SELECT_PARTITION))
    patch(combined, "prepare_subset", spanned(PREPARE, note_prepared))
    patch(
        combined,
        "build_problem",
        lambda fn: _retries_counted(
            rec, fn, (ReversibleIdentityError, DependentPartitionError)
        ),
    )
    patch(SubproblemScheduler, "plan", spanned(PLAN))
    patch(kernel, "kernel_identity_form", spanned(KERNEL))
    patch(api, "nullspace_algorithm", spanned(ENUMERATE, keep_stats))
    patch(api, "combinatorial_parallel", spanned(ENUMERATE, keep_stats))
    patch(combined, "combinatorial_parallel", spanned(ENUMERATE, keep_stats))
    patch(RowSelector, "next_row", spanned(SELECT_ROW))
    for module in (serial, iterstream):
        patch(module, "rank_test", lambda fn: _counted(rec, RANK_TEST_CALLS, fn))
    for owner, attr in (
        (CompressionRecord, "expand_fluxes"),
        (CompressionRecord, "singleton_flux_matrix"),
        (SplitRecord, "fold_modes"),
        (EFMResult, "canonical"),
    ):
        patch(owner, attr, spanned(FINISH))
