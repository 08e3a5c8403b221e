"""Communication tracing: message/byte counters for modeled timing.

Wrap any :class:`~repro.mpi.comm.Communicator` in a
:class:`TracingCommunicator` and every send / allgather / barrier is
recorded into a :class:`CommTrace`.  The cluster platform models
(:mod:`repro.cluster.platform`) replay a trace against latency/bandwidth
specs to produce the modeled "communicate" column of the paper's tables.

Two byte measures coexist per event.  The *logical* sizes (``bytes_out``/
``bytes_in``, via :func:`payload_nbytes`) describe the payload contents,
independent of how the host serializes them; they are what the platform
models replay and what the scaling tables compare.  The *measured* wire
counters (``ser_bytes``/``n_ser``/``wire_out``/``wire_in``, taken as
deltas of the backend's :class:`~repro.mpi.comm.WireCounters` around the
operation) describe what the in-process transport actually did — how many
pickle bytes were produced and moved — and are observability only.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.mpi.comm import Communicator, payload_nbytes


@dataclasses.dataclass(frozen=True)
class CommEvent:
    """One traced communication operation (as seen by one rank).

    The trailing keyword fields carry measured wire-counter deltas;
    their defaults (``0`` / ``-1`` = "not measured") keep hand-built
    positional events meaningful.
    """

    kind: str  # "send" | "recv" | "allgather" | "barrier" | "bcast"
    bytes_out: int
    bytes_in: int
    peers: int  # ranks involved besides self
    ser_bytes: int = 0  # serialized bytes produced during this op
    n_ser: int = 0  # payload serializations performed during this op
    wire_out: int = -1  # transport bytes out (-1: not measured)
    wire_in: int = -1  # transport bytes in (-1: not measured)
    n_msgs: int = -1  # transport messages sent (-1: not measured)


@dataclasses.dataclass
class CommTrace:
    """Accumulated communication behaviour of one rank."""

    events: list[CommEvent] = dataclasses.field(default_factory=list)

    @property
    def bytes_sent(self) -> int:
        return sum(e.bytes_out for e in self.events)

    @property
    def bytes_received(self) -> int:
        return sum(e.bytes_in for e in self.events)

    @property
    def allgather_bytes(self) -> int:
        """Bytes this rank pushed into allgather collectives — the hot
        Communicate&Merge traffic the packed-support wire format shrinks."""
        return sum(e.bytes_out for e in self.events if e.kind == "allgather")

    @property
    def n_messages(self) -> int:
        """Transport messages this rank sent: the measured count when the
        backend records one (the process backend does), else the mesh
        estimate (allgather among P ranks as P-1 sends)."""
        out = 0
        for e in self.events:
            if e.n_msgs >= 0:
                out += e.n_msgs
            elif e.kind == "send":
                out += 1
            elif e.kind == "allgather":
                out += e.peers
            elif e.kind == "bcast":
                # Root fans out to each peer; a non-root rank's bcast is
                # one inbound message.
                out += e.peers if e.bytes_out > 0 else 1
        return out

    # -- measured wire counters (observability; 0 where unmeasured) ---------

    @property
    def ser_bytes(self) -> int:
        """Pickle bytes this rank actually produced (serialization work)."""
        return sum(e.ser_bytes for e in self.events)

    @property
    def n_serializations(self) -> int:
        return sum(e.n_ser for e in self.events)

    @property
    def wire_bytes_sent(self) -> int:
        """Bytes physically handed to the transport (pipe writes, mailbox
        and slot deposits); logical sizes where not measured."""
        return sum(e.wire_out if e.wire_out >= 0 else e.bytes_out for e in self.events)

    @property
    def wire_bytes_received(self) -> int:
        return sum(e.wire_in if e.wire_in >= 0 else e.bytes_in for e in self.events)

    def merge(self, other: "CommTrace") -> "CommTrace":
        return CommTrace(events=self.events + other.events)

    def clear(self) -> None:
        self.events.clear()


class TracingCommunicator(Communicator):
    """Transparent tracing wrapper around another communicator."""

    def __init__(self, inner: Communicator, trace: CommTrace | None = None) -> None:
        super().__init__(inner.rank, inner.size)
        self.inner = inner
        # Share the backend's counters so callers reading either object
        # see the same totals.
        self.wire = inner.wire
        self.trace = trace if trace is not None else CommTrace()

    def _delta(self, before: tuple[int, int, int, int, int]) -> dict[str, int]:
        out, in_, ser, n, msgs = self.inner.wire.snapshot()
        d = {
            "wire_out": out - before[0],
            "wire_in": in_ - before[1],
            "ser_bytes": ser - before[2],
            "n_ser": n - before[3],
        }
        # Only transports that actually count sends report n_msgs; the
        # simulator backends keep -1 so n_messages uses the mesh estimate.
        d["n_msgs"] = (msgs - before[4]) if self.inner.wire.counts_messages else -1
        return d

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        before = self.inner.wire.snapshot()
        self.inner.send(obj, dest, tag)
        self.trace.events.append(
            CommEvent(
                "send",
                bytes_out=payload_nbytes(obj),
                bytes_in=0,
                peers=1,
                **self._delta(before),
            )
        )

    def recv(self, source: int, tag: int = 0) -> Any:
        before = self.inner.wire.snapshot()
        obj = self.inner.recv(source, tag)
        self.trace.events.append(
            CommEvent(
                "recv",
                bytes_out=0,
                bytes_in=payload_nbytes(obj),
                peers=1,
                **self._delta(before),
            )
        )
        return obj

    def barrier(self) -> None:
        self.trace.events.append(CommEvent("barrier", 0, 0, self.size - 1))
        self.inner.barrier()

    def allgather(self, obj: Any) -> list[Any]:
        before = self.inner.wire.snapshot()
        out = self.inner.allgather(obj)
        bytes_in = sum(payload_nbytes(x) for i, x in enumerate(out) if i != self.rank)
        self.trace.events.append(
            CommEvent(
                "allgather",
                bytes_out=payload_nbytes(obj) * (self.size - 1),
                bytes_in=bytes_in,
                peers=self.size - 1,
                **self._delta(before),
            )
        )
        return out

    def bcast(self, obj: Any, root: int = 0) -> Any:
        # Delegate so a backend's root-only bcast is used (the base-class
        # default would silently run over the traced allgather instead).
        before = self.inner.wire.snapshot()
        out = self.inner.bcast(obj, root)
        if self.rank == root:
            logical_out, logical_in = payload_nbytes(obj) * (self.size - 1), 0
        else:
            logical_out, logical_in = 0, payload_nbytes(out)
        self.trace.events.append(
            CommEvent(
                "bcast",
                bytes_out=logical_out,
                bytes_in=logical_in,
                peers=self.size - 1,
                **self._delta(before),
            )
        )
        return out
