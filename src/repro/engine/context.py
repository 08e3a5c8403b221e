"""The run context: one object owning every cross-cutting concern.

Before this layer existed each driver (serial Algorithm 1, combinatorial
Algorithm 2, the column-partitioned variant, the checkpointed serial path
and the divide-and-conquer Algorithm 3) re-threaded ``AlgorithmOptions``,
the rank-test cache wiring, ``RunStats`` collection, tracing, checkpoint
configuration and the :class:`~repro.cluster.memory.MemoryModel` by hand,
so every cross-cutting feature multiplied across five code paths.
:class:`RunContext` is the single seam: ``compute_efms`` constructs it
once and passes it down; drivers ask it for what they need instead of
accepting a private keyword for each concern.

The context is deliberately picklable (no lambdas, no open files) so it
can cross process boundaries: the process-pool executor and the
simulated-MPI process backend fork with a copy.  Mutable members degrade
gracefully on copies — a forked :class:`~repro.linalg.rankmemo.RankCache`
is merely a smaller cache, never a wrong one, and per-process stats sinks
are re-aggregated by the dispatching side.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
from repro.cluster.memory import MemoryModel
from repro.core.stats import IterationStats, RunStats
from repro.core.trace import IterationTrace
from repro.linalg.rankmemo import CacheBinding, RankCache, problem_token

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import NullspaceProblem
    from repro.core.state import ModeMatrix
    from repro.dnc.combined import ParentKernel
    from repro.network.model import MetabolicNetwork


class TraceRecorder:
    """Per-run iteration-snapshot collector (the paper's Figure 2 traces).

    A disabled recorder is a no-op so drivers can call :meth:`capture`
    unconditionally.
    """

    __slots__ = ("enabled", "snapshots")

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.snapshots: list[IterationTrace] = []

    def capture(
        self,
        position: int,
        problem: "NullspaceProblem",
        modes: "ModeMatrix",
        sel_score: int = 0,
    ) -> None:
        if self.enabled:
            self.snapshots.append(
                IterationTrace.capture(position, problem, modes, sel_score)
            )


@dataclasses.dataclass
class RunContext:
    """Everything a Nullspace Algorithm driver needs beyond the problem.

    Parameters
    ----------
    options:
        The algorithm tunables (ordering, chunk sizes).
    memory_model:
        Optional modeled per-rank memory budget.  Drivers obtain fresh
        (zeroed) copies per run via :meth:`fresh_memory` so subproblems are
        accounted independently.
    checkpoint_path:
        Where a run persists state: ``compute_efms`` hands it to the
        serial Nullspace loop as its ``.npz`` snapshot file; the
        divide-and-conquer scheduler uses it as the directory of its
        per-subset results.  The loop itself never reads it from here.
    checkpoint_every:
        Snapshot period (iterations) of a checkpointed Nullspace loop.
    """

    options: AlgorithmOptions = DEFAULT_OPTIONS
    memory_model: MemoryModel | None = None
    checkpoint_path: Path | None = None
    checkpoint_every: int = 1
    #: Shared rank memo for divide-and-conquer runs: ``(cache, token,
    #: parent)`` keyed by canonical reduced-network columns, with the
    #: reduced network's :class:`~repro.dnc.combined.ParentKernel`, whose
    #: rank problem ranks the misses (see :meth:`bind_shared_rank_memo`).
    #: ``None`` means runs go without a memo (see :meth:`rank_binding_for`).
    shared_rank_memo: tuple[RankCache, bytes, "ParentKernel"] | None = None
    #: Finished per-run statistics, appended by drivers via :meth:`collect`
    #: (in-process runs only; forked executors aggregate on return values).
    collected_stats: list[RunStats] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        if self.checkpoint_path is not None:
            self.checkpoint_path = Path(self.checkpoint_path)

    # -- construction --------------------------------------------------------

    @classmethod
    def ensure(
        cls,
        context: "RunContext | None",
        *,
        options: AlgorithmOptions = DEFAULT_OPTIONS,
        memory_model: MemoryModel | None = None,
    ) -> "RunContext":
        """Return ``context`` unchanged, or build one from legacy keywords.

        The drivers' pre-engine keyword arguments (``options=``,
        ``memory_model=``) remain supported; when both a context and the
        keywords are given, the context wins — it is the single source of
        truth constructed by the caller that owns the run.
        """
        if context is not None:
            return context
        return cls(options=options, memory_model=memory_model)

    # -- rank-test cache wiring (satellite: single point of truth) -----------

    def rank_binding_for(
        self,
        problem: "NullspaceProblem",
        col_ids: np.ndarray | None = None,
    ) -> CacheBinding | None:
        """The rank-test cache binding for one prepared problem, or ``None``
        for no memo.

        The one place the Nullspace loop and the divide-and-conquer
        driver get their rank memo from.  Two
        regimes:

        * with :attr:`shared_rank_memo` bound (divide-and-conquer), the
          binding addresses the run-wide memo through ``col_ids`` — the
          mapping from the problem's permuted columns to canonical
          reduced-network column ids, so differing permutations, deletions
          and reversible splits all hit the same entries — and its misses
          are ranked on the reduced stoichiometry's one rank problem
          through the same map (rank depends only on the column span).
          Disjoint subsets test overlapping supports, so the memo pays;
        * otherwise no memo.  One run's candidate phase never rank-tests
          a support twice within an iteration (the stream's dedup index
          holds every tested support), and a support recurring in a later
          iteration is rare: on yeast-II-small 13 of 12,836 tests.  A
          private memo would cost a key and a dict probe per test for
          those few hits.

        A shared memo without a column map would be unsound (raw support
        words mean different column sets in different subproblems), so in
        that combination there is no memo either.
        """
        if self.shared_rank_memo is None or col_ids is None:
            return None
        cache, token, parent = self.shared_rank_memo
        return CacheBinding(cache, token, col_ids, parent.problem)

    def bind_shared_rank_memo(self, reduced: "MetabolicNetwork") -> None:
        """Attach one rank memo for *all* subproblems of a divide-and-conquer
        run over ``reduced``.

        Every subproblem's stoichiometry is the reduced network's with some
        columns deleted (and possibly split into sign-flipped copies), so
        the rank of a submatrix depends only on which reduced-network
        columns the support selects — disjoint subsets repeatedly test
        overlapping supports of the same matrix, and Algorithm 3's
        redundancy becomes cache hits.  For the same reason the reduced
        network's :class:`~repro.dnc.combined.ParentKernel` is built here,
        once: its rank problem ranks every subproblem's misses, and its
        kernel screens and prepares every subset.
        """
        from repro.dnc.combined import ParentKernel  # noqa: PLC0415

        parent = ParentKernel(reduced)
        self.shared_rank_memo = (RankCache(), problem_token(parent.n), parent)

    # -- per-run helpers -----------------------------------------------------

    def fresh_memory(self) -> MemoryModel | None:
        """A zeroed copy of the memory model (per-run/per-subproblem
        accounting), or ``None`` when no budget is modeled."""
        return self.memory_model.fresh() if self.memory_model is not None else None

    def new_iteration(self, problem: "NullspaceProblem", k: int) -> IterationStats:
        """A fresh per-row stats record for position ``k``."""
        return IterationStats(
            position=k,
            reaction=problem.names[k],
            reversible=bool(problem.reversible[k]),
        )

    def row_selector_for(
        self,
        problem: "NullspaceProblem",
        stop: int | None = None,
        *,
        processed=(),
    ):
        """The run's :class:`~repro.core.ordering.RowSelector` over the
        window ``[first_row, stop)`` — static orderings replay the baked-in
        permutation, ``ordering="dynamic"`` scores the live mode matrix
        each iteration.  ``processed`` seeds an already-realized prefix
        (checkpoint resume)."""
        from repro.core.ordering import RowSelector  # noqa: PLC0415

        return RowSelector(
            problem,
            problem.q if stop is None else stop,
            self.options,
            processed=processed,
        )

    def trace_recorder(self) -> TraceRecorder:
        """A per-run snapshot recorder, enabled by ``options.record_trace``."""
        return TraceRecorder(self.options.record_trace)

    def collect(self, stats: RunStats) -> None:
        """Sink a finished run's statistics for caller-side aggregation."""
        self.collected_stats.append(stats)
