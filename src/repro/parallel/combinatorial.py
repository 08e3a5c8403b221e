"""The combinatorial parallel Nullspace Algorithm (Algorithm 2).

SPMD over a :class:`~repro.mpi.comm.Communicator`: every rank replicates
the current mode matrix; each iteration the candidate pairs are
partitioned across ranks (ParallelGenerateEFMCands) by the cyclic share of
[17] (:func:`~repro.core.candidates.strided_range`: adjacent pairs, whose
costs correlate, land on different ranks), each rank locally
deduplicates (Sort&RemoveDuplicates) and rank-tests its share, then an
allgather exchanges the accepted candidates (Communicate&Merge) and every
rank appends the identical merged candidate set, keeping the replicas in
lockstep.  The allgather ships packed supports + int32 pair indices
instead of dense integer rows (~``8*q`` bytes per candidate cheaper);
every rank recomputes the combination coefficients from its replica and
rebuilds the dense survivors after the global dedup.

Determinism: the merged candidate order is canonical (rank-major gather
order, first-occurrence dedup), so all replicas stay bit-identical and the
final EFM set is independent of the number of ranks — property-tested
against the serial algorithm.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
from repro.core.candidates import strided_range
from repro.core.kernel import NullspaceProblem
from repro.core.serial import NullspaceResult, iterate_row, nullspace_algorithm
from repro.core.state import CandidateBatch, ModeMatrix
from repro.core.stats import RunStats
from repro.cluster.memory import MemoryModel
from repro.engine.context import RunContext
from repro.errors import AlgorithmError
from repro.linalg import bitset
from repro.linalg.rankmemo import CacheBinding
from repro.mpi.comm import Communicator
from repro.mpi.spmd import BackendName, run_spmd
from repro.mpi.tracing import CommTrace, TracingCommunicator
from repro.parallel._driver_common import (
    check_selection_consistency,
    collect_wire_stats,
    selection_debug_enabled,
    traced_worker,
)


@dataclasses.dataclass
class ParallelRunResult:
    """Outcome of a parallel run: the (replicated) result plus per-rank
    statistics and communication traces."""

    result: NullspaceResult
    rank_stats: list[RunStats]
    rank_traces: list[CommTrace]

    @property
    def n_ranks(self) -> int:
        return len(self.rank_stats)

    @property
    def stats(self) -> RunStats:
        """Bulk-synchronous aggregate: per-iteration max times across ranks,
        summed candidate counters."""
        agg = self.rank_stats[0]
        for s in self.rank_stats[1:]:
            agg = agg.merged_with(s)
        return agg


@dataclasses.dataclass
class ReplicaSummary:
    """What a rank other than 0 returns from :func:`combinatorial_worker`:
    its statistics and its replica's packed support words."""

    stats: RunStats
    words: np.ndarray


def combinatorial_worker(
    comm: Communicator,
    problem: NullspaceProblem,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    *,
    stop_row: int | None = None,
    memory_model: MemoryModel | None = None,
    rank_cache: CacheBinding | None = None,
    context: RunContext | None = None,
) -> NullspaceResult:
    """SPMD body of Algorithm 2 — call through :func:`combinatorial_parallel`
    or hand it directly to :func:`repro.mpi.spmd.run_spmd`.  Rank 0
    returns the :class:`~repro.core.serial.NullspaceResult`, every other
    rank a :class:`ReplicaSummary`.

    ``rank_cache`` overrides the per-worker rank memo — the
    divide-and-conquer driver passes a binding shared across subproblems
    (the sequential backend's ranks share the dict; the process backend
    degrades to per-process copies, which is merely a smaller cache,
    never wrong).
    """
    ctx = RunContext.ensure(context, options=options)
    options = ctx.options
    t_start = time.perf_counter()
    modes = ModeMatrix.from_kernel(problem.kernel)
    stats = RunStats()
    # The model instance is shared across in-process ranks deliberately:
    # replicas have identical footprints, and sharing lets a dry-run probe
    # report the observed peak back to the caller.  Per-subproblem
    # isolation is the *driver's* job (solve_subset calls .fresh()).
    memory = memory_model if memory_model is not None else ctx.memory_model
    stop = problem.q if stop_row is None else stop_row
    if not (problem.first_row <= stop <= problem.q):
        raise AlgorithmError(f"stop_row {stop} out of range")
    if rank_cache is None:
        rank_cache = ctx.rank_binding_for(problem)

    # Row selection is replica-consistent by construction: every rank
    # holds an identical mode matrix at the top of the iteration, so each
    # computes the same argmin locally — zero extra communication.  The
    # fingerprint allgather below asserts exactly that, in debug/trace
    # mode only.
    selector = ctx.row_selector_for(problem, stop)
    selection_debug = selection_debug_enabled(options)
    while selector.has_next():
        k = selector.next_row(modes)
        if selection_debug:
            check_selection_consistency(comm, selector.fingerprint(k, modes))
        it = ctx.new_iteration(problem, k)
        selector.annotate(it)
        kept, cand_local = iterate_row(
            modes,
            k,
            problem,
            options,
            it,
            pair_range_for=lambda n: strided_range(n, comm.rank, comm.size),
            rank_cache=rank_cache,
            materialize=False,
        )

        # Communicate&Merge: exchange accepted local candidates; every rank
        # rebuilds the identical global candidate set.  The allgather
        # ships packed supports + int32 pair indices: the indices address
        # the replicated pre-iteration mode matrix, identical on every
        # rank, so the combination coefficients are recomputed from the
        # local replica's row-``k`` column.
        t0 = time.perf_counter()
        gathered = comm.allgather(cand_local.to_wire())
        it.t_communicate += time.perf_counter() - t0

        t0 = time.perf_counter()
        # Most ranks contribute nothing on a typical iteration (a handful
        # of accepted candidates spread over all ranks), so assemble only the
        # non-empty parts — and when at most one rank contributed, adopt
        # its arrays without any copy.
        parts = [g for g in gathered if g[0].shape[0]] or [gathered[0]]
        if len(parts) == 1:
            # A single contributing rank: its batch is already locally
            # deduplicated, and unique_rows preserves first-occurrence
            # order, so the global dedup below would be an exact identity.
            words, pair_i, pair_j = parts[0]
        else:
            # Dedup on the packed words alone, *before* touching any dense
            # data — only the surviving pair indices are sliced and only
            # the survivors materialized.
            words = np.concatenate([g[0] for g in parts])
            pair_i = np.concatenate([g[1] for g in parts])
            pair_j = np.concatenate([g[2] for g in parts])
            words, first = bitset.unique_rows(words)
            if first.size != pair_i.size:
                pair_i = pair_i[first]
                pair_j = pair_j[first]
        # Dense values are materialized here, once, for the globally
        # accepted survivors only, in rank-major gather order.
        merged = CandidateBatch.from_wire(
            (words, pair_i, pair_j), problem.q, k
        ).materialize(modes.values)
        # Cross-rank duplicates against surviving zero columns were already
        # removed locally (replicated state), but two ranks may accept the
        # same ray from different pairs — the global dedup above covers it.
        modes = kept.concat(merged) if merged.n_modes else kept
        it.t_merge += time.perf_counter() - t0

        it.n_modes_end = modes.n_modes
        stats.add(it)
        stats.peak_mode_bytes = max(stats.peak_mode_bytes, modes.nbytes())
        if memory is not None:
            memory.check(k, modes)

    stats.t_total = time.perf_counter() - t_start
    if isinstance(comm, TracingCommunicator):
        stats.bytes_sent = comm.trace.bytes_sent
        stats.messages_sent = comm.trace.n_messages
    collect_wire_stats(comm, stats)
    ctx.collect(stats)
    if comm.rank != 0:
        # Only rank 0's replica is returned; the others send back what the
        # replica check compares, not a copy of the mode matrix each.
        return ReplicaSummary(stats=stats, words=modes.supports.words)
    return NullspaceResult(
        problem=problem, modes=modes, stats=stats, stopped_at=stop
    )


def combinatorial_parallel(
    problem: NullspaceProblem,
    n_ranks: int,
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    backend: BackendName = "sequential",
    stop_row: int | None = None,
    memory_model: MemoryModel | None = None,
    rank_cache: CacheBinding | None = None,
    context: RunContext | None = None,
) -> ParallelRunResult:
    """Run Algorithm 2 on ``n_ranks`` simulated ranks.

    All replicas converge to the same mode matrix; the returned
    :class:`ParallelRunResult` carries rank 0's result plus every rank's
    statistics and communication trace (for modeled timing).

    One rank has no pairs to partition and nothing to exchange, so
    Algorithm 2 is Algorithm 1: it runs the serial loop in the calling
    process, whatever the backend, with the same rank memo and
    per-iteration memory check, and an empty trace (0 s of modeled
    communication, as a rank sending to itself models).
    """
    ctx = RunContext.ensure(context, options=options)
    if n_ranks == 1:
        memory = memory_model if memory_model is not None else ctx.memory_model
        res = nullspace_algorithm(
            problem,
            stop_row=stop_row,
            memory_check=memory.check if memory is not None else None,
            rank_cache=rank_cache,
            context=ctx,
        )
        return ParallelRunResult(
            result=res, rank_stats=[res.stats], rank_traces=[CommTrace()]
        )
    outs = run_spmd(
        traced_worker(combinatorial_worker),
        n_ranks,
        backend=backend,
        args=(problem, ctx.options),
        kwargs={
            "stop_row": stop_row,
            "memory_model": memory_model,
            "rank_cache": rank_cache,
            "context": ctx,
        },
        comm_timeout=ctx.options.comm_timeout_s,
    )
    results = [r for r, _ in outs]
    traces = [t for _, t in outs]
    # Replica consistency is an algorithm invariant — verify it.
    words0 = results[0].modes.supports.words
    for r, res in enumerate(results[1:], start=1):
        if not np.array_equal(res.words, words0):
            raise AlgorithmError(f"rank {r} replica diverged from rank 0")
    return ParallelRunResult(
        result=results[0],
        rank_stats=[r.stats for r in results],
        rank_traces=traces,
    )
