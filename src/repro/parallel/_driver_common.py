"""Helpers shared by the SPMD parallel drivers.

The combinatorial (replicated) and distributed (column-partitioned)
drivers grew copy-pasted plumbing — mode-matrix assembly for the
allgather rounds, transport-counter collection, and the tracing wrapper
handed to :func:`repro.mpi.spmd.run_spmd`.  One copy of each lives here,
with the two steps the Nullspace loop adds under a communicator.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

from repro.config import AlgorithmOptions
from repro.core.state import CandidateBatch, ModeMatrix
from repro.core.stats import IterationStats, RunStats
from repro.errors import AlgorithmError
from repro.linalg import bitset
from repro.linalg.bitset import PackedSupports
from repro.mpi.comm import Communicator
from repro.mpi.tracing import TracingCommunicator


def concat_mode_parts(parts, q: int) -> ModeMatrix:
    """Concatenate many ranks' ``(values, words)`` payloads into one mode
    matrix (rank-major order, single allocation per array)."""
    vals = np.concatenate([p[0] for p in parts], axis=0)
    words = np.concatenate([p[1] for p in parts], axis=0)
    return ModeMatrix.from_parts(vals, PackedSupports(words, q))


def exchange_candidates(
    comm: Communicator, local: CandidateBatch, it: IterationStats
) -> CandidateBatch:
    """Algorithm 2's Communicate&Merge: allgather every rank's accepted
    candidates as packed supports + pair indices (which address the
    replicated pre-iteration modes) and return the same merged batch, in
    rank-major first-occurrence order, on every rank."""
    t0 = time.perf_counter()
    gathered = comm.allgather(local.to_wire())
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
        # the survivors materialized.  Cross-rank duplicates against
        # surviving zero columns were already removed locally (replicated
        # state), but two ranks may accept the same ray from different
        # pairs.
        words = np.concatenate([g[0] for g in parts])
        pair_i = np.concatenate([g[1] for g in parts])
        pair_j = np.concatenate([g[2] for g in parts])
        words, first = bitset.unique_rows(words)
        if first.size != pair_i.size:
            pair_i = pair_i[first]
            pair_j = pair_j[first]
    merged = CandidateBatch.from_wire((words, pair_i, pair_j), local.q, local.row)
    it.t_merge += time.perf_counter() - t0
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
    comm: Communicator, fingerprint: tuple[int, int, int]
) -> None:
    """Assert all ranks selected the same row from the same replica state.

    Allgathers each rank's cheap ``(row, n_modes, support-digest)``
    fingerprint (see :meth:`repro.core.ordering.RowSelector.fingerprint`)
    and raises :class:`~repro.errors.AlgorithmError` on the first
    divergence — a replica whose mode matrix drifted, or a
    non-deterministic selector, would otherwise corrupt the run silently.
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
