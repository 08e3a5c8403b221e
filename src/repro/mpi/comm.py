"""Abstract communicator: the MPI subset the parallel algorithms use.

The parallel Nullspace loop is bulk-synchronous — its only operation is
the per-iteration ``allgather`` (Communicate&Merge; under the
column-partitioned storage rule also the row counts and a row's active
modes) — but point-to-point messages are provided for tests and richer
patterns.  The interface follows mpi4py's lower-case object API (pickled
Python objects); the backends are in-process substitutes for an MPI
cluster.  Every backend ships a message as one pickle blob, serialized
once per operation however many peers receive it (:func:`pack_message`).
"""

from __future__ import annotations

import abc
import pickle
from typing import Any

import numpy as np

from repro.errors import CommunicatorError


class WireCounters:
    """Per-communicator transport accounting, updated by every backend.

    ``ser_bytes``/``n_ser`` measure serialization *work* (pickle bytes
    produced); ``wire_out``/``wire_in`` count serialized payload bytes
    moved through the transport (pipe writes, mailbox and slot
    deposits); ``ctrl_out`` separately counts control-plane bytes
    (barrier tokens) that carry no payload.  ``msgs_out`` counts
    transport messages and is only meaningful when the backend sets
    ``counts_messages`` (the process backend does; the sequential
    simulator keeps the mesh estimate of :class:`~repro.mpi.tracing.CommTrace`).
    """

    __slots__ = (
        "n_ser",
        "ser_bytes",
        "wire_out",
        "wire_in",
        "ctrl_out",
        "msgs_out",
        "counts_messages",
    )

    def __init__(self) -> None:
        self.n_ser = 0
        self.ser_bytes = 0
        self.wire_out = 0
        self.wire_in = 0
        self.ctrl_out = 0
        self.msgs_out = 0
        self.counts_messages = False

    def snapshot(self) -> tuple[int, int, int, int, int]:
        """(wire_out, wire_in, ser_bytes, n_ser, msgs_out) — tracing
        takes deltas around an operation to attribute counters to
        events."""
        return (
            self.wire_out,
            self.wire_in,
            self.ser_bytes,
            self.n_ser,
            self.msgs_out,
        )


def pack_message(obj: Any, counters: WireCounters | None = None) -> bytes:
    """Pickle one payload exactly once, counting the work on
    ``counters`` (``None`` marks control traffic that is not payload)."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if counters is not None:
        counters.n_ser += 1
        counters.ser_bytes += len(blob)
    return blob


class Communicator(abc.ABC):
    """One rank's endpoint of a communicator of ``size`` ranks.

    Every communicator carries :attr:`wire` — :class:`WireCounters` that
    the backends update with serialization and transport byte counts;
    the tracing wrapper takes deltas around each operation to attribute
    them to events.
    """

    def __init__(self, rank: int, size: int) -> None:
        if not (0 <= rank < size):
            raise CommunicatorError(f"rank {rank} out of range for size {size}")
        self._rank = rank
        self._size = size
        self.wire = WireCounters()

    @property
    def rank(self) -> int:
        """This process's rank (``Get_rank`` in MPI terms)."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks (``Get_size``)."""
        return self._size

    # -- point to point ------------------------------------------------------

    @abc.abstractmethod
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking-semantics send of a picklable object."""

    @abc.abstractmethod
    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive matching ``(source, tag)``."""

    # -- collectives -----------------------------------------------------------

    @abc.abstractmethod
    def barrier(self) -> None:
        """Synchronize all ranks."""

    @abc.abstractmethod
    def allgather(self, obj: Any) -> list[Any]:
        """Gather one object from every rank onto every rank; the returned
        list is indexed by rank."""

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast from ``root``; default implementation over allgather."""
        return self.allgather(obj if self.rank == root else None)[root]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} rank {self.rank}/{self.size}>"


def payload_nbytes(obj: Any) -> int:
    """Estimate the wire size of a message payload.

    Arrays and objects exposing ``nbytes`` are measured directly (what an
    MPI buffer send would move); lists, tuples and dict values are summed
    recursively, element by element, so the structured wire payloads of
    the parallel drivers — e.g. the deferred pipeline's ``(words, pair_i,
    pair_j)`` allgather tuple, or a dict of named array parts — are
    measured by their array contents rather than a whole-container
    pickle.  Everything else is
    measured by pickling — exactly what both backends (and
    mpi4py's lower-case API) would serialize.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    nb = getattr(obj, "nbytes", None)
    if callable(nb):
        return int(nb())
    if isinstance(nb, (int, np.integer)):
        return int(nb)
    if isinstance(obj, (list, tuple)):
        return int(sum(payload_nbytes(x) for x in obj))
    if isinstance(obj, dict):
        # Keys are metadata (short strings); the payload is the values.
        return int(sum(payload_nbytes(v) for v in obj.values()))
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - unpicklable payloads are caller bugs
        return 0
