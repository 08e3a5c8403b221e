"""Multiprocessing backend: ranks as OS processes with pipe mesh.

The closest in-box substitute for a real MPI job: genuinely separate
address spaces, explicit serialization on every message, and per-process
peak-memory isolation.  On a single-core host this demonstrates semantics
rather than speedup; on multi-core hosts the heavy phases parallelize.
Rank ``r`` runs on the ``r``-th CPU the parent may use, as ``mpiexec
--bind-to core`` places ranks, when there are at least as many such CPUs
as ranks (:func:`~repro.mpi.spmd.pin_to_cpu`); with fewer, every rank
keeps the parent's CPU set.

Transport: every pipe message is one pickle blob shipped with
``Connection.send_bytes`` — a payload is serialized **once** no matter how
many peers it goes to.  The allgather is a phased pairwise exchange over
the mesh whose send/receive order cannot deadlock on payloads larger than
the pipe buffer (see :meth:`ProcessCommunicator.allgather`).  Each rank
process holds only its own mesh endpoints, so a rank that dies closes
its pipes and its peers fail at once with a :class:`CommunicatorError`
instead of waiting out the receive timeout.

The SPMD callable and its arguments must be picklable module-level
objects (the same restriction ``mpiexec python script.py`` imposes in
spirit).
"""

from __future__ import annotations

import math
import multiprocessing as mp
import pickle
from multiprocessing.connection import Connection
from typing import Any

from repro.config import resolve_comm_timeout
from repro.errors import CommunicatorError
from repro.mpi.comm import Communicator, pack_message
from repro.mpi.spmd import pin_to_cpu

#: Reserved (negative) tags of the collective operations.
_TAG_BARRIER = -1
_TAG_GATHER = -2
_TAG_BCAST = -3

#: What a pipe raises when the rank at its other end has gone away.
_PEER_GONE = (EOFError, BrokenPipeError, ConnectionResetError)


class ProcessCommunicator(Communicator):
    """Rank endpoint over a full pipe mesh."""

    def __init__(
        self,
        rank: int,
        size: int,
        pipes: dict[int, Connection],
        *,
        recv_timeout: float = 300.0,
    ) -> None:
        super().__init__(rank, size)
        self._pipes = pipes  # peer rank -> Connection
        self._stash: list[tuple[int, int, Any]] = []
        self._recv_timeout = float(recv_timeout)
        self.wire.counts_messages = True  # real transport, real counts

    # -- blob plumbing -------------------------------------------------------

    def _pack(self, src: int, tag: int, obj: Any, *, count: bool = True) -> bytes:
        """Serialize one ``(src, tag, payload)`` message exactly once.

        ``count=False`` marks control traffic (barrier tokens) whose
        serialization is not payload work.
        """
        return pack_message((src, tag, obj), self.wire if count else None)

    def _send_raw(self, blob: bytes, dest: int) -> None:
        try:
            self._pipes[dest].send_bytes(blob)
        except KeyError:
            raise CommunicatorError(f"send to invalid rank {dest}") from None
        except _PEER_GONE as exc:
            raise CommunicatorError(
                f"rank {self.rank} lost its connection to rank {dest} "
                f"while sending ({type(exc).__name__})"
            ) from None
        self.wire.msgs_out += 1

    def _send_blob(self, blob: bytes, dest: int) -> None:
        """Ship a serialized-payload blob (counted on the payload plane)."""
        self._send_raw(blob, dest)
        self.wire.wire_out += len(blob)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if dest == self.rank:
            self._stash.append((self.rank, tag, obj))
            return
        self._send_blob(self._pack(self.rank, tag, obj), dest)

    def recv(self, source: int, tag: int = 0) -> Any:
        for i, (src, t, obj) in enumerate(self._stash):
            if src == source and t == tag:
                del self._stash[i]
                return obj
        if source == self.rank:
            raise CommunicatorError("self-recv with no matching self-send")
        conn = self._pipes[source]
        while True:
            try:
                if not conn.poll(timeout=self._recv_timeout):
                    raise CommunicatorError(
                        f"rank {self.rank} timed out receiving from {source} "
                        f"after {self._recv_timeout:g}s"
                    )
                raw = conn.recv_bytes()
            except _PEER_GONE as exc:
                raise CommunicatorError(
                    f"rank {self.rank} lost its connection to rank {source} "
                    f"while receiving ({type(exc).__name__})"
                ) from None
            self.wire.wire_in += len(raw)
            src, t, obj = pickle.loads(raw)
            if src == source and t == tag:
                return obj
            self._stash.append((src, t, obj))

    def barrier(self) -> None:
        # Dissemination barrier over the mesh (log rounds); pure control
        # traffic, packed once and kept off the payload counters.
        blob: bytes | None = None
        round_ = 1
        while round_ < self.size:
            peer_to = (self.rank + round_) % self.size
            peer_from = (self.rank - round_) % self.size
            if blob is None:
                blob = self._pack(self.rank, _TAG_BARRIER, None, count=False)
            self._send_raw(blob, peer_to)
            self.wire.ctrl_out += len(blob)
            self.recv(peer_from, tag=_TAG_BARRIER)
            round_ <<= 1

    # -- collectives ---------------------------------------------------------

    def allgather(self, obj: Any) -> list[Any]:
        """Phased pairwise exchange of one serialize-once blob.

        In phase ``d`` rank ``r`` sends to ``r+d`` and receives from
        ``r-d``.  A pipe holds at most one buffer's worth of bytes, so a
        send blocks until its peer reads; if every rank sent first, a
        payload larger than the buffer would block all of them.  The
        phase's edges form ``gcd(P, d)`` cycles, and ranks
        ``0 .. gcd(P, d) - 1`` lie on distinct cycles: each of those
        receives first and all other ranks send first, so every cycle has
        one rank draining it and the blocked sends unwind around it.
        """
        if self.size == 1:
            return [obj]
        blob = self._pack(self.rank, _TAG_GATHER, obj)
        out: list[Any] = [None] * self.size
        out[self.rank] = obj
        for d in range(1, self.size):
            dest = (self.rank + d) % self.size
            peer = (self.rank - d) % self.size
            if self.rank < math.gcd(self.size, d):
                out[peer] = self.recv(peer, tag=_TAG_GATHER)
                self._send_blob(blob, dest)
            else:
                self._send_blob(blob, dest)
                out[peer] = self.recv(peer, tag=_TAG_GATHER)
        return out

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Root-only payload movement: root serializes once and ships the
        blob to each peer; nothing else moves (the allgather-based default
        shipped every non-root rank's ``None`` and root's payload P
        times)."""
        if self.size == 1:
            return obj
        if self.rank == root:
            blob = self._pack(self.rank, _TAG_BCAST, obj)
            for peer in range(self.size):
                if peer != self.rank:
                    self._send_blob(blob, peer)
            return obj
        return self.recv(root, tag=_TAG_BCAST)


def _worker(rank, size, mesh, fn, args, kwargs, result_conn, recv_timeout):
    pin_to_cpu(rank, size)
    # The fork handed this process every rank's endpoints; keep only its
    # own, so that when a peer process exits its pipes reach EOF here.
    for other, ends in enumerate(mesh):
        if other != rank:
            for conn in ends.values():
                conn.close()
    comm = ProcessCommunicator(rank, size, mesh[rank], recv_timeout=recv_timeout)
    # The result takes the mesh's wire, not ``Connection.send`` (pickle
    # protocol 4 hands a ``>f8`` array back as native ``float64``).
    try:
        reply = pack_message(("ok", fn(comm, *args, **kwargs)))
    except BaseException as exc:  # noqa: BLE001 - marshalled to parent
        reply = pack_message(("error", repr(exc)))
    result_conn.send_bytes(reply)


class ProcessEngine:
    """Launches an SPMD callable across N rank processes."""

    name = "process"

    def __init__(self, *, comm_timeout: float | None = None) -> None:
        self.comm_timeout = resolve_comm_timeout(comm_timeout)

    def run(self, fn, size: int, args: tuple = (), kwargs: dict | None = None) -> list[Any]:
        kwargs = kwargs or {}
        ctx = mp.get_context("fork")
        # Full mesh of pipes: mesh[i][j] is i's endpoint to j.
        mesh: list[dict[int, Connection]] = [dict() for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                a, b = ctx.Pipe(duplex=True)
                mesh[i][j] = a
                mesh[j][i] = b
        result_pipes = [ctx.Pipe(duplex=False) for _ in range(size)]
        procs = [
            ctx.Process(
                target=_worker,
                args=(
                    r, size, mesh, fn, args, kwargs, result_pipes[r][1],
                    self.comm_timeout,
                ),
                name=f"proc-rank-{r}",
            )
            for r in range(size)
        ]
        for p in procs:
            p.start()
        # The children hold their own copies; the parent's would keep
        # every pipe open past a rank's death.
        for ends in mesh:
            for conn in ends.values():
                conn.close()
        for _rx, tx in result_pipes:
            tx.close()
        results: list[Any] = [None] * size
        errors: list[str | None] = [None] * size
        result_timeout = max(600.0, 2.0 * self.comm_timeout)
        for r, (rx, _tx) in enumerate(result_pipes):
            try:
                if not rx.poll(timeout=result_timeout):
                    errors[r] = "timed out"
                    continue
                status, payload = pickle.loads(rx.recv_bytes())
            except EOFError:
                errors[r] = "exited without a result"
                continue
            if status == "ok":
                results[r] = payload
            else:
                errors[r] = payload
        for p in procs:
            p.join(timeout=30.0)
            if p.is_alive():  # pragma: no cover - stuck worker
                p.terminate()
        failed = [f"rank {r}: {e}" for r, e in enumerate(errors) if e is not None]
        if failed:
            raise CommunicatorError("; ".join(failed))
        return results
