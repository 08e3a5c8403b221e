"""Helpers of the Nullspace loop under a communicator.

The steps :func:`repro.core.serial.nullspace_algorithm` adds when it runs
as one rank of Algorithm 2: the candidate exchange (which runs the rank
test) and the selection check; under the column-partitioned storage rule
also the row selection from summed counts and the gather of a row's
active modes.  Plus the transport-counter collection and the tracing
wrapper handed to :func:`repro.mpi.spmd.run_spmd`.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

from repro.config import AlgorithmOptions
from repro.core.ranktest import rank_test
from repro.core.state import CandidateBatch, ModeMatrix
from repro.core.stats import IterationStats, PhaseTimer, RunStats
from repro.errors import AlgorithmError
from repro.linalg import bitset
from repro.linalg.bitset import PackedSupports
from repro.linalg.rankmemo import CacheBinding
from repro.mpi.comm import Communicator
from repro.mpi.tracing import TracingCommunicator


def select_sharded_row(
    comm: Communicator, selector, modes: ModeMatrix
) -> tuple[int, int, int, float]:
    """The next row of a column-partitioned run: every rank allgathers
    its pos/neg counts over the remaining rows
    (:meth:`~repro.core.ordering.RowSelector.count_matrix`); dynamic
    selection scores their sums, static orderings replay.  Returns ``(k,
    n_pos, n_neg, seconds)``: the row, its global counts and the
    allgather's time."""
    rows = selector.remaining_rows()
    t0 = time.perf_counter()
    parts = comm.allgather(selector.count_matrix(modes))
    seconds = time.perf_counter() - t0
    counts = np.sum(parts, axis=0)
    if selector.dynamic:
        k = selector.next_row_from_counts(counts[0], counts[1])
    else:
        k = selector.next_row()
    n_pos, n_neg = counts[:, int(np.searchsorted(rows, k))]
    return k, int(n_pos), int(n_neg), seconds


def gather_active(
    comm: Communicator, modes: ModeMatrix, signs: np.ndarray, it: IterationStats
) -> tuple[ModeMatrix, np.ndarray]:
    """Allgather a sharded row's active modes (``signs != 0``) and the
    other modes' supports.  Returns ``(active, zero_words)``, the same on
    every rank: the active modes in rank-major order, which every rank's
    pair indices address, and the dedup preload and pre-screen set."""
    active = signs != 0
    t0 = time.perf_counter()
    parts = comm.allgather(
        (
            modes.values[active],
            modes.supports.words[active],
            modes.supports.words[~active],
        )
    )
    it.t_communicate += time.perf_counter() - t0
    with PhaseTimer(it, "t_merge"):
        values = np.concatenate([p[0] for p in parts], axis=0)
        words = np.concatenate([p[1] for p in parts], axis=0)
        zero_words = np.concatenate([p[2] for p in parts], axis=0)
    return ModeMatrix.from_parts(values, PackedSupports(words, modes.q)), zero_words


def exchange_candidates(
    comm: Communicator,
    survivors: CandidateBatch,
    n_perm: np.ndarray,
    rank_bound: int,
    it: IterationStats,
    *,
    rank_cache: CacheBinding | None = None,
) -> CandidateBatch:
    """Algorithm 2's Communicate&Merge, with the rank test inside it.

    ``survivors`` are this rank's deduplicated, pre-screened and untested
    candidates (:func:`~repro.core.iterstream.stream_iteration` with
    ``untested=True``).  Every rank

    1. allgathers the survivors as packed supports + pair indices (which
       address the replicated pre-iteration modes);
    2. keeps the first copy of each support, in rank-major order;
    3. rank-tests its strided share of that unique set, in chunks whose
       rank-kernel rows (at most ``24 * q + 64`` bytes a candidate, see
       :func:`repro.cluster.memory.modular_workset_bytes`) stay within
       :data:`~repro.linalg.bitset.TRANSIENT_BYTES`;
    4. allgathers its packed accept bits;

    and returns the same accepted batch.  A support two ranks both
    generated is so tested once, on one rank.
    """
    t0 = time.perf_counter()
    gathered = comm.allgather(survivors.to_wire())
    it.t_communicate += time.perf_counter() - t0

    with PhaseTimer(it, "t_merge"):
        sizes = [g[0].shape[0] for g in gathered]
        parts = [g for g in gathered if g[0].shape[0]] or [gathered[0]]
        if len(parts) == 1:
            # One contributing rank: its survivors are already unique, and
            # unique_rows keeps first-occurrence order, so the global dedup
            # below would be an exact identity.
            words, pair_i, pair_j = parts[0]
        else:
            words = np.concatenate([g[0] for g in parts])
            pair_i = np.concatenate([g[1] for g in parts])
            pair_j = np.concatenate([g[2] for g in parts])
            words, first = bitset.unique_rows(words)
            if first.size != pair_i.size:
                pair_i = pair_i[first]
                pair_j = pair_j[first]
                # Each dropped copy counts on the rank that sent it.
                lo = sum(sizes[: comm.rank])
                hi = lo + sizes[comm.rank]
                kept = int(np.count_nonzero((first >= lo) & (first < hi)))
                it.n_duplicates += sizes[comm.rank] - kept
        unique = CandidateBatch.from_wire(
            (words, pair_i, pair_j), survivors.q, survivors.row
        )
        it.candidate_bytes = max(
            it.candidate_bytes, survivors.nbytes() + unique.nbytes()
        )
    n = unique.n_modes
    if n == 0:
        # Every rank sees the same empty set, so none enters step 4.
        return unique

    share = np.arange(comm.rank, n, comm.size)
    ok = np.zeros(share.size, dtype=bool)
    step = max(1, bitset.TRANSIENT_BYTES // (24 * unique.q + 64))
    with PhaseTimer(it, "t_rank_test"):
        for s in range(0, share.size, step):
            ok[s : s + step] = rank_test(
                unique.select(share[s : s + step]),
                n_perm,
                rank_bound,
                cache=rank_cache,
                stats=it,
            )
    it.n_tested += share.size
    it.n_accepted = int(np.count_nonzero(ok))

    t0 = time.perf_counter()
    bits = comm.allgather(np.packbits(ok))
    it.t_communicate += time.perf_counter() - t0

    with PhaseTimer(it, "t_merge"):
        accept = np.empty(n, dtype=bool)
        for r, packed in enumerate(bits):
            count = len(range(r, n, comm.size))
            accept[r :: comm.size] = np.unpackbits(packed, count=count).view(bool)
        merged = unique.select(np.flatnonzero(accept))
    return merged


def collect_wire_stats(comm: Communicator, stats: RunStats) -> None:
    """Copy the backend's measured transport counters into the run stats."""
    w = getattr(comm, "wire", None)
    if w is None:
        return
    stats.ser_bytes = w.ser_bytes
    stats.n_serializations = w.n_ser
    stats.wire_bytes_sent = w.wire_out


def selection_debug_enabled(options: AlgorithmOptions) -> bool:
    """Whether the per-iteration selection-consistency fingerprint check
    runs (debug/trace mode: ``record_trace`` or ``REPRO_SELECTION_DEBUG``).
    Production dynamic selection is communication-free — every replica
    computes the same argmin locally — so the allgathered fingerprint is
    strictly a debugging assertion, never a correctness dependency."""
    return options.record_trace or bool(os.environ.get("REPRO_SELECTION_DEBUG"))


def check_selection_consistency(
    comm: Communicator, fingerprint: tuple[int, ...]
) -> None:
    """Assert all ranks selected the same row from the same replica state.

    Allgathers each rank's cheap ``(row, n_modes, support-digest)``
    fingerprint (see :meth:`repro.core.ordering.RowSelector.fingerprint`)
    and raises :class:`~repro.errors.AlgorithmError` on the first
    divergence — a replica whose mode matrix drifted, or a
    non-deterministic selector, would otherwise corrupt the run silently.
    Shards differ by design, so a column-partitioned run passes ``(row,)``
    and the check confirms only that every rank chose the same row.
    """
    gathered = comm.allgather(tuple(int(x) for x in fingerprint))
    bad = [r for r, fp in enumerate(gathered) if tuple(fp) != tuple(gathered[0])]
    if bad:
        raise AlgorithmError(
            f"dynamic row selection diverged across ranks: rank 0 chose "
            f"{gathered[0]} but ranks {bad} chose "
            f"{[tuple(gathered[r]) for r in bad]}"
        )


def _traced_call(worker_fn, comm: Communicator, *args, **kwargs):
    traced = TracingCommunicator(comm)
    result = worker_fn(traced, *args, **kwargs)
    if isinstance(result, tuple):
        return (*result, traced.trace)
    return result, traced.trace


def traced_worker(worker_fn):
    """Wrap an SPMD worker so its communicator is traced and the trace is
    appended to the worker's return value.

    Returns a :func:`functools.partial` over module-level functions, so
    the wrapper stays picklable for the process backend.
    """
    return functools.partial(_traced_call, worker_fn)
