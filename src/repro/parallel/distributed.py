"""Column-partitioned parallel Nullspace Algorithm (future-work item 1).

The paper's §V: "the current nullspace matrix should not be stored across
all the compute nodes ... but should be partitioned in an efficient way
instead."  This variant shards the mode matrix across ranks:

* each rank owns a disjoint subset of modes (initially a cyclic split of
  the kernel columns);
* at iteration ``k`` only the modes *active* in row ``k`` (positive or
  negative entry) are exchanged — the zero-entry majority never moves;
* the global pos x neg pair space is partitioned combinatorially, each
  rank keeps the candidates it generates (ownership follows generation);
* duplicate control needs global knowledge, so the packed *supports* of
  new candidates are allgathered (64x smaller than the values) and a
  deterministic first-owner rule drops repeats.

Per-rank storage is ``O(total/P + active(k))`` instead of ``O(total)`` —
the memory-scaling benchmark (E-ABL4) measures exactly this difference.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
from repro.core.candidates import strided_range
from repro.core.iterstream import stream_iteration
from repro.core.kernel import NullspaceProblem
from repro.core.state import CandidateBatch, ModeMatrix
from repro.core.stats import PhaseTimer, RunStats
from repro.engine.context import RunContext
from repro.errors import AlgorithmError
from repro.linalg import bitset
from repro.mpi.comm import Communicator
from repro.mpi.spmd import BackendName, run_spmd
from repro.mpi.tracing import CommTrace, TracingCommunicator
from repro.parallel._driver_common import (
    collect_wire_stats,
    concat_mode_parts,
    traced_worker,
)


@dataclasses.dataclass
class DistributedRunResult:
    """Outcome of a column-partitioned run."""

    #: every rank's local modes, problem order (concatenate for the full set).
    rank_modes: list[ModeMatrix]
    rank_stats: list[RunStats]
    rank_traces: list[CommTrace]
    problem: NullspaceProblem
    #: first unprocessed row; ``problem.q`` for a full run (early-stopped
    #: runs hold an intermediate matrix, not EFMs).
    stopped_at: int = -1

    def __post_init__(self) -> None:
        if self.stopped_at < 0:
            self.stopped_at = self.problem.q

    @property
    def complete(self) -> bool:
        return self.stopped_at >= self.problem.q

    @property
    def n_efms(self) -> int:
        return sum(m.n_modes for m in self.rank_modes)

    def all_modes(self) -> ModeMatrix:
        out = self.rank_modes[0]
        for m in self.rank_modes[1:]:
            out = out.concat(m)
        return out

    def efms_input_order(self) -> np.ndarray:
        """The union of all ranks' modes in input reaction order.

        Raises :class:`~repro.errors.AlgorithmError` for early-stopped
        runs — intermediate modes are not EFMs (mirrors
        :meth:`repro.core.serial.NullspaceResult.efms_input_order`).
        """
        if not self.complete:
            raise AlgorithmError(
                f"run stopped early at row {self.stopped_at} of "
                f"{self.problem.q}; the distributed mode shards are an "
                "intermediate nullspace state, not an EFM set — read "
                ".rank_modes for intermediate access"
            )
        return np.ascontiguousarray(
            self.all_modes().values[:, self.problem.inverse_perm()]
        )

    @property
    def peak_rank_bytes(self) -> int:
        """Worst per-rank mode storage over the run — the quantity the
        partitioning is meant to shrink."""
        return max(s.peak_mode_bytes for s in self.rank_stats)


def distributed_worker(
    comm: Communicator,
    problem: NullspaceProblem,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    *,
    stop_row: int | None = None,
    context: RunContext | None = None,
) -> tuple[ModeMatrix, RunStats]:
    """SPMD body of the column-partitioned algorithm."""
    ctx = RunContext.ensure(context, options=options)
    options = ctx.options
    t_start = time.perf_counter()
    if options.arithmetic == "exact":
        raise AlgorithmError("distributed variant supports float arithmetic only")
    q = problem.q
    kernel_modes = ModeMatrix.from_kernel(problem.kernel, policy=options.policy)
    local = kernel_modes.select(np.arange(comm.rank, kernel_modes.n_modes, comm.size))
    stats = RunStats()
    stop = problem.q if stop_row is None else stop_row
    rank_cache = ctx.rank_binding_for(problem)

    # Dynamic row selection under sharding: no rank sees the whole mode
    # matrix, so the selector's scores come from globally summed pos/neg
    # count vectors — one extra tiny allgather (two int64 per remaining
    # row) per iteration, base score only (the sharded-driver exception
    # to the replicated drivers' communication-free selection; lookahead
    # needs the joint sign distribution only replicas hold).  Static
    # orderings take the replay path with no extra communication.
    selector = ctx.row_selector_for(problem, stop)
    while selector.has_next():
        if selector.dynamic:
            t0 = time.perf_counter()
            count_parts = comm.allgather(selector.count_matrix(local))
            dt_select = time.perf_counter() - t0
            totals = np.sum(np.stack(count_parts), axis=0)
            k = selector.next_row_from_counts(totals[0], totals[1])
        else:
            dt_select = 0.0
            k = selector.next_row()
        it = ctx.new_iteration(problem, k)
        selector.annotate(it)
        it.t_communicate += dt_select
        signs = local.sign_column(k)
        my_pos = local.select(np.nonzero(signs > 0)[0])
        my_neg = local.select(np.nonzero(signs < 0)[0])
        zero_keep = local.select(np.nonzero(signs == 0)[0])

        # Exchange only the active modes of this row.
        t0 = time.perf_counter()
        gathered = comm.allgather(
            (my_pos.values, my_pos.supports.words, my_neg.values, my_neg.supports.words)
        )
        it.t_communicate += time.perf_counter() - t0

        pos_all = concat_mode_parts(
            [(g[0], g[1]) for g in gathered], q, options.policy
        )
        neg_all = concat_mode_parts(
            [(g[2], g[3]) for g in gathered], q, options.policy
        )
        it.n_pos = pos_all.n_modes
        it.n_neg = neg_all.n_modes
        it.n_zero = zero_keep.n_modes  # local share only

        cand = ModeMatrix.empty(q, policy=options.policy)
        n_pairs_total = pos_all.n_modes * neg_all.n_modes
        if n_pairs_total:
            active = pos_all.concat(neg_all)
            pos_idx = np.arange(pos_all.n_modes)
            neg_idx = pos_all.n_modes + np.arange(neg_all.n_modes)
            pr = strided_range(n_pairs_total, comm.rank, comm.size)
            it.n_pairs = pr.count()
            # Stream the local pair share chunk by chunk.  No zero-entry
            # preload: duplicate control against zero survivors is global
            # here, after the allgather below.
            cand = stream_iteration(
                active, k, pos_idx, neg_idx, pr, problem.n_perm,
                problem.rank, options, it,
                acceptance="rank", rank_cache=rank_cache,
            )
            it.n_accepted = cand.n_modes

        # Global duplicate control over supports only: a candidate is kept
        # by the lowest rank that generated it, and dropped everywhere if
        # some rank's surviving zero-entry mode already carries its support.
        t0 = time.perf_counter()
        zero_words_all = comm.allgather(zero_keep.supports.words)
        cand_words_all = comm.allgather(cand.supports.words)
        it.t_communicate += time.perf_counter() - t0
        with PhaseTimer(it, "t_merge"):
            zero_words = np.concatenate(zero_words_all, axis=0)
            if cand.n_modes:
                drop = bitset.rows_in(cand.supports.words, zero_words)
                if comm.rank:
                    lower_ranks = np.concatenate(cand_words_all[: comm.rank], axis=0)
                    drop |= bitset.rows_in(cand.supports.words, lower_ranks)
                if drop.any():
                    it.n_duplicates += int(drop.sum())
                    cand = cand.select(~drop)
                if isinstance(cand, CandidateBatch):
                    # The global duplicate control above ran on supports
                    # alone; dense rows are rebuilt here,
                    # once, for the survivors this rank owns.
                    cand = cand.materialize(active.values)

            if bool(problem.reversible[k]):
                survivors = local
            else:
                keep_mask = signs >= 0
                it.n_neg_removed = int((~keep_mask).sum())
                survivors = local.select(np.nonzero(keep_mask)[0])
            local = survivors.concat(cand) if cand.n_modes else survivors
        it.n_modes_end = local.n_modes
        stats.add(it)
        stats.peak_mode_bytes = max(
            stats.peak_mode_bytes,
            local.nbytes() + pos_all.nbytes() + neg_all.nbytes(),
        )

    stats.t_total = time.perf_counter() - t_start
    if isinstance(comm, TracingCommunicator):
        stats.bytes_sent = comm.trace.bytes_sent
        stats.messages_sent = comm.trace.n_messages
    collect_wire_stats(comm, stats)
    ctx.collect(stats)
    return local, stats


def distributed_parallel(
    problem: NullspaceProblem,
    n_ranks: int,
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    backend: BackendName = "sequential",
    stop_row: int | None = None,
    context: RunContext | None = None,
) -> DistributedRunResult:
    """Run the column-partitioned algorithm on ``n_ranks`` ranks."""
    ctx = RunContext.ensure(context, options=options)
    outs = run_spmd(
        traced_worker(distributed_worker),
        n_ranks,
        backend=backend,
        args=(problem, ctx.options),
        kwargs={"stop_row": stop_row, "context": ctx},
        comm_timeout=ctx.options.comm_timeout_s,
    )
    return DistributedRunResult(
        rank_modes=[o[0] for o in outs],
        rank_stats=[o[1] for o in outs],
        rank_traces=[o[2] for o in outs],
        problem=problem,
        stopped_at=problem.q if stop_row is None else stop_row,
    )
