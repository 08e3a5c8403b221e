"""Lockstep thread backend: N ranks as threads in one process.

NumPy releases the GIL inside its kernels, so the heavy phases (candidate
generation, SVD rank tests) overlap to the extent the host has cores;
regardless of overlap the *semantics* are those of a distributed-memory
run — ranks share nothing except explicit messages.  A payload is
pickled once into a bytes blob and every receiver unpickles its own
private copy, so a rank can never corrupt a peer's arrays.
"""

from __future__ import annotations

import pickle
import queue
import threading
from typing import Any

from repro.config import resolve_comm_timeout
from repro.errors import CommunicatorError
from repro.mpi.comm import Communicator, pack_message


class _SharedState:
    """State shared by the rank endpoints of one ThreadEngine world."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.barrier = threading.Barrier(size)
        # mailbox[dest] holds (source, tag, blob) triples.
        self.mailboxes: list[queue.Queue] = [queue.Queue() for _ in range(size)]
        # allgather rendezvous slots, double-buffered by phase parity so a
        # fast rank starting the next allgather cannot clobber a slow
        # rank's unread slot from the previous one.
        self.slots: list[list[Any]] = [[None] * size, [None] * size]
        self.gather_barrier = threading.Barrier(size)


class ThreadCommunicator(Communicator):
    """One rank endpoint of the thread backend."""

    def __init__(
        self,
        rank: int,
        shared: _SharedState,
        *,
        recv_timeout: float = 120.0,
    ) -> None:
        super().__init__(rank, shared.size)
        self._shared = shared
        self._stash: list[tuple[int, int, bytes]] = []
        self._phase = 0
        self._recv_timeout = float(recv_timeout)

    def _unpack(self, blob: bytes) -> Any:
        self.wire.wire_in += len(blob)
        return pickle.loads(blob)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not (0 <= dest < self.size):
            raise CommunicatorError(f"send to invalid rank {dest}")
        blob = pack_message(obj, self.wire)
        self.wire.wire_out += len(blob)
        self._shared.mailboxes[dest].put((self.rank, tag, blob))

    def recv(self, source: int, tag: int = 0) -> Any:
        # Check messages stashed by earlier mismatched receives first.
        for i, (src, t, blob) in enumerate(self._stash):
            if src == source and t == tag:
                del self._stash[i]
                return self._unpack(blob)
        box = self._shared.mailboxes[self.rank]
        while True:
            try:
                src, t, blob = box.get(timeout=self._recv_timeout)
            except queue.Empty:
                raise CommunicatorError(
                    f"rank {self.rank} timed out waiting for (src={source}, "
                    f"tag={tag}); likely deadlock"
                ) from None
            if src == source and t == tag:
                return self._unpack(blob)
            self._stash.append((src, t, blob))

    def barrier(self) -> None:
        try:
            self._shared.barrier.wait(timeout=self._recv_timeout)
        except threading.BrokenBarrierError:
            raise CommunicatorError("barrier broken (a rank died?)") from None

    def allgather(self, obj: Any) -> list[Any]:
        shared = self._shared
        slots = shared.slots[self._phase]
        self._phase ^= 1
        # One serialization, deposited once; every reader unpickles its own
        # copy straight from the shared blob.
        blob = pack_message(obj, self.wire)
        self.wire.wire_out += len(blob)
        slots[self.rank] = blob
        try:
            shared.gather_barrier.wait(timeout=self._recv_timeout)
        except threading.BrokenBarrierError:
            raise CommunicatorError("allgather barrier broken") from None
        out = []
        for r, s in enumerate(slots):
            if r != self.rank:
                self.wire.wire_in += len(s)
            out.append(pickle.loads(s))
        # Second barrier so nobody rewrites this parity's slots before all
        # ranks finished reading (two parities + barrier = safe).
        try:
            shared.gather_barrier.wait(timeout=self._recv_timeout)
        except threading.BrokenBarrierError:
            raise CommunicatorError("allgather barrier broken") from None
        return out


class ThreadEngine:
    """Launches an SPMD callable across N rank threads."""

    name = "thread"

    def __init__(self, *, comm_timeout: float | None = None) -> None:
        self.comm_timeout = resolve_comm_timeout(comm_timeout)

    def run(self, fn, size: int, args: tuple = (), kwargs: dict | None = None) -> list[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; returns per-rank
        results (re-raises the first rank exception, if any)."""
        kwargs = kwargs or {}
        shared = _SharedState(size)
        results: list[Any] = [None] * size
        errors: list[BaseException | None] = [None] * size

        def worker(rank: int) -> None:
            comm = ThreadCommunicator(
                rank,
                shared,
                recv_timeout=self.comm_timeout,
            )
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[rank] = exc
                shared.barrier.abort()
                shared.gather_barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"rank-{r}", daemon=True)
            for r in range(size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Prefer a root-cause exception over secondary broken-barrier noise.
        secondary = None
        for exc in errors:
            if exc is None:
                continue
            if isinstance(exc, CommunicatorError):
                secondary = secondary or exc
            else:
                raise exc
        if secondary is not None:
            raise secondary
        return results
