"""The serial Nullspace Algorithm (Algorithm 1 of the paper).

One iteration per row of the (permuted) mode matrix, starting at the first
non-identity row:

1. split modes on the sign of the current row's entry;
2. ``GenerateEFMCands`` — pair every positive with every negative mode;
3. ``Sort&RemoveDuplicates`` — canonicalize supports, drop duplicates
   (both among candidates and against surviving zero-entry modes — the
   paper's §II.C toy trace dedups candidate (1,1,0,0,1,1,0,0) against the
   identical mode already present in K⁽⁴⁾);
4. ``RankTests`` — the algebraic rank test;
5. ``RemoveNegColumns`` — irreversible rows drop negative-entry modes;
6. concatenate survivors and accepted candidates.

:func:`nullspace_algorithm` is the one loop that eliminates rows, for
Algorithm 1, for each rank of Algorithm 2 (given a communicator, a rank
takes its cyclic share of the pairs in step 2, and after step 3 the ranks
exchange their survivors, dedup them across ranks and split step 4
between them), for each rank of the column-partitioned variant (the same
steps on shards of the mode matrix instead of replicas) and so for every
subset of Algorithm 3; with a checkpoint path it also snapshots and
resumes.
``iterate_row`` is steps 1–4 of one iteration, and picks step 5's
survivors.

Which row an iteration eliminates comes from the run's
:class:`~repro.core.ordering.RowSelector`: static orderings replay the
problem's baked-in permutation, ``ordering="dynamic"`` (default) picks
the cheapest remaining row from the live mode matrix each iteration.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
from repro.core import iterstream
from repro.core.candidates import full_range, strided_range
from repro.core.kernel import NullspaceProblem
# Not called here since every driver streams its candidate phase, but the
# end-to-end benchmark's tracer (benchmarks/e2e/spans.py) wraps this name.
from repro.core.ranktest import rank_test  # noqa: F401
from repro.core.state import CandidateBatch, ModeMatrix
from repro.core.stats import IterationStats, PhaseTimer, RunStats
from repro.core.trace import IterationTrace
from repro.engine.context import RunContext
from repro.errors import AlgorithmError
from repro.linalg.rankmemo import CacheBinding

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator


@dataclasses.dataclass
class NullspaceResult:
    """Outcome of a Nullspace Algorithm run.

    ``modes`` is in the problem's *processing* permutation; use
    :meth:`efms_input_order` for the caller's column order.  For
    divide-and-conquer runs stopped early (``stopped_at < q``,
    Proposition 1) the modes are an intermediate nullspace matrix, *not*
    a full EFM set — the EFM accessors (:attr:`n_efms`,
    :meth:`efms_input_order`) refuse to serve them and raise
    :class:`~repro.errors.AlgorithmError`; read :attr:`modes` directly for
    intermediate-state access (as the divide-and-conquer driver does).
    """

    problem: NullspaceProblem
    modes: ModeMatrix
    stats: RunStats
    stopped_at: int
    trace: list[IterationTrace] = dataclasses.field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether every non-identity row was processed (``stopped_at ==
        q``); early-stopped divide-and-conquer runs are incomplete."""
        return self.stopped_at >= self.problem.q

    def _require_complete(self) -> None:
        if not self.complete:
            raise AlgorithmError(
                f"run stopped early at row {self.stopped_at} of "
                f"{self.problem.q}; the mode matrix is an intermediate "
                "nullspace state, not an EFM set — finish the remaining "
                "rows or read .modes for the intermediate matrix"
            )

    @property
    def n_efms(self) -> int:
        self._require_complete()
        return self.modes.n_modes

    def efms_input_order(self) -> np.ndarray:
        """EFMs as a ``(n_modes, q)`` float64 array of unit max-norm rows
        with columns in the problem's input reaction order.

        Raises
        ------
        AlgorithmError
            When the run stopped early (``complete`` is False): the
            intermediate modes are not EFMs and silently returning them
            would corrupt downstream unions.
        """
        self._require_complete()
        return self.modes.float_values(self.problem.inverse_perm())


#: ``(iteration, modes)``, plus the bytes of the row's gathered active
#: modes when a sharded rank holds them too.
MemoryCheck = Callable[..., None]


def iterate_row(
    modes: ModeMatrix,
    k: int,
    problem: NullspaceProblem,
    options: AlgorithmOptions,
    stats: IterationStats,
    *,
    rank_cache: CacheBinding | None = None,
    comm: "Communicator | None" = None,
    sharded: bool = False,
) -> tuple[np.ndarray | None, CandidateBatch, ModeMatrix]:
    """One iteration body: ``GenerateEFMCands``, ``Sort&RemoveDuplicates``
    and ``RankTests`` — under ``comm``, with Algorithm 2's exchange.

    Returns ``(keep, accepted_candidates, source)``: the indices of the
    old modes that survive ``RemoveNegColumns`` (``None`` on a reversible
    row, where all do), the deduplicated, rank-tested candidates, as a
    support-only :class:`~repro.core.state.CandidateBatch`, and the matrix
    (``modes`` unless ``sharded``) whose values
    :func:`nullspace_algorithm` materializes them from.  ``rank_cache``
    optionally shares a support-pattern rank memo across iterations (and,
    for divide-and-conquer drivers, across subproblems).

    The generate → dedup → pre-screen → rank-test sequence runs as a
    bounded-memory chunk stream
    (:func:`repro.core.iterstream.stream_iteration`).  Under ``comm`` this
    rank streams its cyclic share of the pairs untested, and
    :func:`~repro.parallel._driver_common.exchange_candidates` dedups the
    survivors across ranks before it splits their rank test.

    ``sharded``: ``modes`` is this rank's shard, ``stats.n_pos``/``n_neg``
    hold the row's global counts, a row with pairs first gathers
    (:func:`~repro.parallel._driver_common.gather_active`), and the rank
    keeps its strided share of the accepted batch.
    """
    signs = modes.sign_column(k)
    zero_mask = signs == 0
    stats.n_zero = int(zero_mask.sum())
    source, source_signs, zero_words = modes, signs, None
    if sharded and stats.n_pos * stats.n_neg:
        from repro.parallel._driver_common import gather_active  # noqa: PLC0415

        source, zero_words = gather_active(comm, modes, signs, stats)
        source_signs = source.sign_column(k)
    pos_idx = np.nonzero(source_signs > 0)[0]
    neg_idx = np.nonzero(source_signs < 0)[0]
    if not sharded:
        stats.n_pos = int(pos_idx.size)
        stats.n_neg = int(neg_idx.size)

    reversible = bool(problem.reversible[k])
    n_pairs_total = stats.n_pos * stats.n_neg

    cand = CandidateBatch.empty(modes.q, k)
    if n_pairs_total:
        if comm is None:
            pr = full_range(n_pairs_total)
        else:
            pr = strided_range(n_pairs_total, comm.rank, comm.size)
        stats.n_pairs = pr.count()
        if zero_words is None:
            zero_words = modes.supports.words[zero_mask]
        cand = iterstream.stream_iteration(
            source, k, pos_idx, neg_idx, pr, problem.n_perm,
            problem.rank, options, stats,
            zero_words=zero_words,
            rank_cache=rank_cache,
            untested=comm is not None,
        )
        if comm is None:
            stats.n_accepted = cand.n_modes
        else:
            from repro.parallel._driver_common import (  # noqa: PLC0415
                exchange_candidates,
            )

            cand = exchange_candidates(
                comm, cand, problem.n_perm, problem.rank, stats,
                rank_cache=rank_cache,
            )
            if sharded:
                cand = cand.select(np.arange(comm.rank, cand.n_modes, comm.size))

    if reversible:
        stats.n_neg_removed = 0
        return None, cand, source
    keep_mask = signs >= 0
    stats.n_neg_removed = int((~keep_mask).sum())
    return np.nonzero(keep_mask)[0], cand, source


def nullspace_algorithm(
    problem: NullspaceProblem,
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    stop_row: int | None = None,
    memory_check: MemoryCheck | None = None,
    rank_cache: CacheBinding | None = None,
    context: RunContext | None = None,
    checkpoint_path: str | Path | None = None,
    comm: "Communicator | None" = None,
    sharded: bool = False,
) -> NullspaceResult:
    """Run Algorithm 1 on a prepared problem — or, given ``comm``, one
    rank's share of Algorithm 2.

    Parameters
    ----------
    stop_row:
        Process rows up to (excluding) this position — Proposition 1's
        early stop for divide-and-conquer subproblems.  Default: all rows.
    memory_check:
        Called after every iteration with ``(iteration, modes)`` — on a
        sharded rank whose row gathered active modes, with their bytes as
        a third argument, since they are alive beside the shard; may
        raise :class:`repro.errors.OutOfMemoryError` to model a
        node-memory limit.  Overrides the context's memory model when
        given.
    rank_cache:
        Rank memo binding — the divide-and-conquer driver's shared memo
        keyed by canonical column ids.  Without one the run asks its
        context, which gives a plain run no memo (see
        :meth:`RunContext.rank_binding_for`).
    context:
        The run's :class:`~repro.engine.context.RunContext`.  When absent a
        private one is built from ``options`` (legacy call style).
    checkpoint_path:
        An ``.npz`` :class:`~repro.core.checkpoint.Checkpoint`, written
        every ``context.checkpoint_every`` iterations and after the last;
        an existing one is validated and the run resumes from it.
    comm:
        This rank's communicator in an SPMD run of Algorithm 2
        (:mod:`repro.parallel.combinatorial`).
    sharded:
        Under ``comm``, the column-partitioned storage rule
        (:mod:`repro.parallel.combinatorial`): the result's ``modes`` are
        this rank's shard, starting from its cyclic share of the kernel
        columns, and ``peak_mode_bytes`` also counts a row's gathered
        active modes.
    """
    ctx = RunContext.ensure(context, options=options)
    options = ctx.options
    t_start = time.perf_counter()
    stop = problem.q if stop_row is None else stop_row
    if not (problem.first_row <= stop <= problem.q):
        raise AlgorithmError(f"stop_row {stop} out of range")
    ck = None
    if checkpoint_path is not None:
        from repro.core.checkpoint import resume_or_start  # noqa: PLC0415

        if ctx.checkpoint_every < 1:
            raise AlgorithmError("checkpoint_every must be >= 1")
        ck = resume_or_start(checkpoint_path, problem, options.ordering)
    modes = ck.modes if ck else ModeMatrix.from_kernel(problem.kernel)
    if sharded:
        modes = modes.select(np.arange(comm.rank, modes.n_modes, comm.size))
    stats = ck.stats if ck else RunStats()
    elapsed0 = ck.elapsed if ck else 0.0
    recorder = ctx.trace_recorder()
    if rank_cache is None:
        rank_cache = ctx.rank_binding_for(problem)
    if memory_check is None:
        memory = ctx.fresh_memory()
        memory_check = memory.check if memory is not None else None
    selection_debug = False
    if comm is not None:
        from repro.parallel._driver_common import (  # noqa: PLC0415
            check_selection_consistency,
            select_sharded_row,
            selection_debug_enabled,
        )

        selection_debug = selection_debug_enabled(options)

    # Dynamic ordering consults the selector at the top of every
    # iteration (scored from the live mode matrix); static orderings
    # replay the problem's baked-in permutation through the same seam.
    # A resume replays the checkpoint's realized prefix.  Under ``comm``
    # every replica holds an identical mode matrix here, so each selects
    # the same row locally with no communication; shards sum their counts.
    selector = ctx.row_selector_for(
        problem, stop, processed=ck.row_order if ck else ()
    )
    n_resumed = len(selector.realized)
    while selector.has_next():
        if sharded:
            k, n_pos, n_neg, dt_select = select_sharded_row(comm, selector, modes)
        else:
            k = selector.next_row(modes)
        if selection_debug:
            check_selection_consistency(
                comm, (k,) if sharded else selector.fingerprint(k, modes)
            )
        it = ctx.new_iteration(problem, k)
        selector.annotate(it)
        if sharded:
            it.n_pos, it.n_neg = n_pos, n_neg
            it.t_communicate += dt_select
        keep, cand, source = iterate_row(
            modes, k, problem, options, it,
            rank_cache=rank_cache, comm=comm, sharded=sharded,
        )
        gathered_bytes = 0 if source is modes else source.nbytes()
        # Dense rows exist only from here on, and only for the accepted
        # survivors; they are built before the kept modes are copied, so
        # their transients never coexist with that copy.
        with PhaseTimer(it, "t_merge"):
            cand = cand.materialize(source.values)
        kept = modes if keep is None else modes.select(keep)
        with PhaseTimer(it, "t_merge"):
            modes = kept.concat(cand) if cand.n_modes else kept
        it.n_modes_end = modes.n_modes
        stats.add(it)
        stats.peak_mode_bytes = max(
            stats.peak_mode_bytes, modes.nbytes() + gathered_bytes
        )
        del source
        recorder.capture(k, problem, modes, selector.last_score)
        if memory_check is not None:
            if gathered_bytes:
                memory_check(k, modes, gathered_bytes)
            else:
                memory_check(k, modes)
        if ck and (
            (len(selector.realized) - n_resumed) % ctx.checkpoint_every == 0
            or not selector.has_next()
        ):
            stats.t_total = elapsed0 + time.perf_counter() - t_start
            dataclasses.replace(
                ck,
                next_row=problem.first_row + len(selector.realized),
                modes=modes,
                stats=stats,
                elapsed=stats.t_total,
                row_order=tuple(selector.realized),
            ).save(checkpoint_path)

    stats.t_total = elapsed0 + time.perf_counter() - t_start
    ctx.collect(stats)
    return NullspaceResult(
        problem=problem,
        modes=modes,
        stats=stats,
        stopped_at=stop,
        trace=recorder.snapshots,
    )
