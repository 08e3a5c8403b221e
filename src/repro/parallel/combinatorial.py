"""The combinatorial parallel Nullspace Algorithm (Algorithm 2).

SPMD over a :class:`~repro.mpi.comm.Communicator`: every rank replicates
the current mode matrix; each iteration the candidate pairs are
partitioned across ranks (ParallelGenerateEFMCands) by the cyclic share of
[17] (:func:`~repro.core.candidates.strided_range`: adjacent pairs, whose
costs correlate, land on different ranks), each rank locally
deduplicates (Sort&RemoveDuplicates) and pre-screens its share, then the
ranks allgather their survivors, drop supports another rank already
holds, split the rank test of the unique set and allgather the accept
bits (Communicate&Merge, :func:`~repro.parallel._driver_common.exchange_candidates`).
Every rank appends the identical accepted set, keeping the replicas in
lockstep.  The allgather ships packed supports + int32 pair indices
instead of dense integer rows (~``8*q`` bytes per candidate cheaper);
every rank recomputes the combination coefficients from its replica and
rebuilds the dense rows of the accepted candidates only.  On the process
backend each rank computes on a CPU of its own when there are enough.
Each rank runs the one Nullspace loop,
:func:`~repro.core.serial.nullspace_algorithm`, given its communicator;
this module launches the ranks and checks that their replicas agree.

``sharded=True`` runs the column-partitioned variant (the paper's §V
future-work item 1): the same loop, each rank owning a disjoint shard of
the modes (at first its cyclic share of the kernel columns).  Rows are
chosen from summed counts, a row with pairs gathers only its active modes
and the zero-entry supports, a pair-free row gathers nothing, and each
rank keeps its strided share of the accepted candidates: per-rank storage
is ``O(total/P + active(k))``, not ``O(total)`` (E-ABL4).  The replica
check becomes a check that no support is owned twice.  Algorithm 2 itself
stays replicated: its per-rank memory is what Table IV runs out of.

Determinism: the merged candidate order is canonical (rank-major gather
order, first-occurrence dedup, accept bits in that order), so all
replicas stay bit-identical and the final EFM set is independent of the
number of ranks — property-tested against the serial algorithm.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
from repro.core.kernel import NullspaceProblem
from repro.core.serial import NullspaceResult, nullspace_algorithm
from repro.core.stats import RunStats
from repro.cluster.memory import MemoryModel
from repro.engine.context import RunContext
from repro.errors import AlgorithmError
from repro.linalg import bitset
from repro.linalg.rankmemo import CacheBinding
from repro.mpi.comm import Communicator
from repro.mpi.spmd import BackendName, run_spmd
from repro.mpi.tracing import CommTrace, TracingCommunicator
from repro.parallel._driver_common import collect_wire_stats, traced_worker


@dataclasses.dataclass
class ParallelRunResult:
    """Outcome of a parallel run: the (replicated, or concatenated
    sharded) result plus per-rank statistics and communication traces."""

    result: NullspaceResult
    rank_stats: list[RunStats]
    rank_traces: list[CommTrace]
    #: whether the ranks held shards of the modes, not replicas.
    sharded: bool = False

    @property
    def n_ranks(self) -> int:
        return len(self.rank_stats)

    @property
    def stats(self) -> RunStats:
        """Bulk-synchronous aggregate: per-iteration max times across ranks,
        summed candidate counters (and summed mode counts over shards)."""
        agg = self.rank_stats[0]
        for s in self.rank_stats[1:]:
            agg = agg.merged_with(s, shards=self.sharded)
        return agg


@dataclasses.dataclass
class ReplicaSummary:
    """What a rank other than 0 returns from :func:`combinatorial_worker`:
    its statistics and its replica's packed support words."""

    stats: RunStats
    words: np.ndarray


def combinatorial_worker(
    comm: Communicator, problem: NullspaceProblem, *, sharded: bool = False, **loop
) -> NullspaceResult | ReplicaSummary:
    """SPMD body of Algorithm 2, handed to :func:`repro.mpi.spmd.run_spmd`
    by :func:`combinatorial_parallel`: the Nullspace loop
    (:func:`~repro.core.serial.nullspace_algorithm`, keywords ``loop``)
    on ``comm``.  Rank 0 returns the
    :class:`~repro.core.serial.NullspaceResult`, every other rank a
    :class:`ReplicaSummary` — or, for a sharded run, its own result."""
    res = nullspace_algorithm(problem, comm=comm, sharded=sharded, **loop)
    stats = res.stats
    if isinstance(comm, TracingCommunicator):
        stats.bytes_sent = comm.trace.bytes_sent
        stats.messages_sent = comm.trace.n_messages
    collect_wire_stats(comm, stats)
    if comm.rank != 0 and not sharded:
        # Only rank 0's replica is returned; the others send back what the
        # replica check compares, not a copy of the mode matrix each.
        return ReplicaSummary(stats=stats, words=res.modes.supports.words)
    return res


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
    checkpoint_path: str | Path | None = None,
    sharded: bool = False,
) -> ParallelRunResult:
    """Run Algorithm 2 on ``n_ranks`` simulated ranks.

    All replicas converge to the same mode matrix; the returned
    :class:`ParallelRunResult` carries rank 0's result plus every rank's
    statistics and communication trace (for modeled timing).

    ``sharded`` runs the column-partitioned variant (module docstring):
    the result's modes are the shards concatenated, and the memory model
    charges each rank's shard.

    ``rank_cache`` overrides the per-run rank memo — the
    divide-and-conquer driver passes a binding shared across subproblems
    (the sequential backend's ranks share the dict; the process backend
    degrades to per-process copies, which is merely a smaller cache,
    never wrong).

    One rank has no pairs to partition and nothing to exchange, so
    Algorithm 2 is Algorithm 1: it runs the loop without a communicator
    in the calling process, whatever the backend, and an empty trace (0 s
    of modeled communication, as a rank sending to itself models).  Only
    that one-rank run takes a ``checkpoint_path``.  One shard is the whole
    matrix, so a one-rank sharded run is the same run.
    """
    ctx = RunContext.ensure(context, options=options)
    # The model instance is shared across in-process ranks deliberately:
    # replicas have identical footprints, and sharing lets a dry-run probe
    # report the observed peak back to the caller.  Per-subproblem
    # isolation is the *driver's* job (solve_subset calls .fresh()).
    memory = memory_model if memory_model is not None else ctx.memory_model
    loop = {
        "stop_row": stop_row,
        "memory_check": memory.check if memory is not None else None,
        "rank_cache": rank_cache,
        "context": ctx,
    }
    if n_ranks == 1:
        res = nullspace_algorithm(problem, checkpoint_path=checkpoint_path, **loop)
        return ParallelRunResult(
            result=res, rank_stats=[res.stats], rank_traces=[CommTrace()]
        )
    if checkpoint_path is not None:
        raise AlgorithmError(f"a checkpointed run needs one rank, not {n_ranks}")
    outs = run_spmd(
        traced_worker(combinatorial_worker),
        n_ranks,
        backend=backend,
        args=(problem,),
        kwargs={**loop, "sharded": sharded},
        comm_timeout=ctx.options.comm_timeout_s,
    )
    results = [r for r, _ in outs]
    traces = [t for _, t in outs]
    if sharded:
        result = join_shards(results)
    else:
        # Replica consistency is an algorithm invariant — verify it.
        words0 = results[0].modes.supports.words
        for r, res in enumerate(results[1:], start=1):
            if not np.array_equal(res.words, words0):
                raise AlgorithmError(f"rank {r} replica diverged from rank 0")
        result = results[0]
    return ParallelRunResult(
        result=result,
        rank_stats=[r.stats for r in results],
        rank_traces=traces,
        sharded=sharded,
    )


def join_shards(shards: list[NullspaceResult]) -> NullspaceResult:
    """Concatenate a sharded run's per-rank modes and trace snapshots,
    rank-major, into one result (stats stay rank 0's).  Ownership is an
    algorithm invariant: raises :class:`~repro.errors.AlgorithmError` when
    a support is owned by more than one rank."""
    modes = shards[0].modes
    for shard in shards[1:]:
        modes = modes.concat(shard.modes)
    _, first = bitset.unique_rows(modes.supports.words)
    if first.size != modes.n_modes:
        raise AlgorithmError(
            f"{modes.n_modes - first.size} supports are owned by more than one rank"
        )
    trace = [
        dataclasses.replace(snap, matrix=np.hstack([s.trace[i].matrix for s in shards]))
        for i, snap in enumerate(shards[0].trace)
    ]
    return dataclasses.replace(shards[0], modes=modes, trace=trace)
