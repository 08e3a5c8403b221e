"""Cross-backend tests for the message-passing substrate."""

import contextlib
import multiprocessing as mp
import os
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.mpi.spmd import (
    allowed_cpus,
    available_parallelism,
    get_engine,
    run_spmd,
)

BACKENDS = ("sequential", "process")


# Module-level SPMD bodies (the process backend requires picklables).

def _job_allgather(comm, base):
    return comm.allgather(comm.rank * base)


def _job_ring(comm):
    dest = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    comm.send(f"from-{comm.rank}", dest, tag=5)
    return comm.recv(src, tag=5)


def _job_barrier_order(comm):
    for _ in range(3):
        comm.barrier()
    return comm.rank


def _job_bcast(comm):
    return comm.bcast("payload" if comm.rank == 1 else None, root=1)


def _job_numpy(comm):
    data = np.full(100, comm.rank, dtype=np.int64)
    parts = comm.allgather(data)
    return int(sum(p.sum() for p in parts))


def _job_no_aliasing(comm):
    data = np.zeros(4)
    parts = comm.allgather(data)
    peer = (comm.rank + 1) % comm.size
    parts[peer][:] = 99.0  # a received buffer must never reach the sender
    again = comm.allgather(data)
    return float(again[peer].sum())


def _job_big_allgather(comm, nbytes):
    """Allgather a payload far larger than a pipe's buffer."""
    parts = comm.allgather(np.full(nbytes, comm.rank + 1, dtype=np.uint8))
    return [(p.size, int(p.min()), int(p.max())) for p in parts]


def _job_echo(comm, payload):
    return payload


def _job_tag_matching(comm):
    if comm.rank == 0:
        comm.send("b", 1, tag=2)
        comm.send("a", 1, tag=1)
    if comm.rank == 1:
        first = comm.recv(0, tag=1)  # out of arrival order
        second = comm.recv(0, tag=2)
        return first, second
    return None


def _job_fails_on_rank(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    comm.barrier()
    return comm.rank


def _job_killed_on_rank(comm):
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)  # dies without a report
    comm.barrier()
    return comm.rank


def _job_affinity(comm):
    return sorted(os.sched_getaffinity(0))


@contextlib.contextmanager
def _affinity(cpus):
    """Narrow this process's CPU set for the block, then restore it."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail (instead of hanging the suite) when the body overruns; rank
    processes still alive at that point are terminated."""

    def expire(signum, frame):
        for child in mp.active_children():
            child.terminate()
        raise AssertionError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCollectives:
    def test_allgather(self, backend):
        outs = run_spmd(_job_allgather, 4, backend=backend, args=(10,))
        assert all(o == [0, 10, 20, 30] for o in outs)

    def test_ring_send_recv(self, backend):
        outs = run_spmd(_job_ring, 4, backend=backend)
        assert outs == [f"from-{(r - 1) % 4}" for r in range(4)]

    def test_repeated_barriers(self, backend):
        assert run_spmd(_job_barrier_order, 3, backend=backend) == [0, 1, 2]

    def test_bcast(self, backend):
        assert run_spmd(_job_bcast, 3, backend=backend) == ["payload"] * 3

    def test_numpy_payloads(self, backend):
        outs = run_spmd(_job_numpy, 3, backend=backend)
        assert outs == [300] * 3  # 0*100 + 1*100 + 2*100

    def test_tag_matching_out_of_order(self, backend):
        outs = run_spmd(_job_tag_matching, 2, backend=backend)
        assert outs[1] == ("a", "b")

    def test_single_rank(self, backend):
        outs = run_spmd(_job_allgather, 1, backend=backend, args=(5,))
        assert outs == [[0]]

    def test_returned_array_keeps_byte_order(self, backend):
        data = np.arange(4, dtype=">f8")
        outs = run_spmd(_job_echo, 2, backend=backend, args=(data,))
        for out in outs:
            assert out.dtype == np.dtype(">f8")
            assert np.array_equal(out, data)


@pytest.mark.parametrize("backend", BACKENDS)
class TestIsolation:
    def test_pickle_copies_do_not_leak(self, backend):
        outs = run_spmd(_job_no_aliasing, 3, backend=backend)
        # Received buffers are private writable copies.
        assert outs == [0.0] * 3


class TestLargePayloads:
    @pytest.mark.parametrize("size", (2, 3))
    def test_process_allgather_beyond_pipe_buffer(self, size):
        """Regression: when every rank sent before receiving, two ranks
        exchanging more than a pipe buffer blocked in their sends
        forever."""
        nbytes = 8 << 20
        with _deadline(60):
            outs = run_spmd(
                _job_big_allgather,
                size,
                backend="process",
                args=(nbytes,),
                comm_timeout=20,
            )
        expected = [(nbytes, r + 1, r + 1) for r in range(size)]
        assert outs == [expected] * size

    @pytest.mark.parametrize("refused", [False, True])
    def test_process_result_beyond_pipe_buffer(self, monkeypatch, refused):
        """Each rank's 3 MB result reaches the parent whole, through a
        widened result pipe or, where the kernel refuses to widen it, the
        default one."""
        from repro.mpi import process

        asked = []

        def refuse(fd, cmd, nbytes):
            asked.append(nbytes)
            raise OSError("refused")

        if refused:
            monkeypatch.setattr(
                process, "fcntl", SimpleNamespace(F_SETPIPE_SZ=1031, fcntl=refuse)
            )
        payload = np.arange(3 << 20, dtype=np.uint8)
        with _deadline(60):
            outs = run_spmd(_job_echo, 2, backend="process", args=(payload,))
        assert asked == ([process._RESULT_PIPE_BYTES] * 2 if refused else [])
        for out in outs:
            assert np.array_equal(out, payload)

    def test_widen_pipe_sets_the_buffer(self):
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_GETPIPE_SZ"):
            pytest.skip("no pipe-size control on this platform")
        from repro.mpi.process import _RESULT_PIPE_BYTES, _widen_pipe

        rx, tx = mp.get_context("fork").Pipe(duplex=False)
        try:
            _widen_pipe(tx, _RESULT_PIPE_BYTES)
            size = fcntl.fcntl(tx.fileno(), fcntl.F_GETPIPE_SZ)
            # A system cap below 1 MiB leaves the default; never smaller.
            assert size in (_RESULT_PIPE_BYTES, 1 << 16)
        finally:
            rx.close()
            tx.close()


@pytest.mark.parametrize("backend", BACKENDS)
class TestErrors:
    def test_rank_failure_propagates(self, backend):
        t0 = time.perf_counter()
        with _deadline(60), pytest.raises(
            (ValueError, CommunicatorError), match="rank 1 exploded"
        ):
            run_spmd(_job_fails_on_rank, 3, backend=backend)
        # A dead rank fails the run at once, not after the receive poll.
        assert time.perf_counter() - t0 < 10.0


class TestProcessRankDeath:
    def test_killed_rank_fails_the_run_at_once(self):
        t0 = time.perf_counter()
        with _deadline(60), pytest.raises(
            CommunicatorError, match="rank 1: exited without a result"
        ):
            run_spmd(_job_killed_on_rank, 3, backend="process")
        assert time.perf_counter() - t0 < 10.0


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
)
class TestPlacement:
    def test_one_cpu_per_rank(self):
        cpus = allowed_cpus()
        size = min(len(cpus), 4)
        got = run_spmd(_job_affinity, size, backend="process")
        assert all(len(a) == 1 for a in got)
        assert sorted(a[0] for a in got) == cpus[:size]

    def test_more_ranks_than_cpus_keep_the_parent_set(self):
        one = {allowed_cpus()[0]}
        with _affinity(one):
            got = run_spmd(_job_affinity, 2, backend="process")
        assert got == [sorted(one)] * 2

    def test_pool_workers_one_cpu_each(self, monkeypatch):
        from repro.engine import executors  # noqa: PLC0415

        def affinity(order, job):
            return sorted(os.sched_getaffinity(0))

        monkeypatch.setattr(executors, "solve_job", affinity)
        n = min(len(allowed_cpus()), 2)
        order = SimpleNamespace(n_ranks=1, backend="process")
        jobs = [SimpleNamespace(index=i, predicted_peak_bytes=0) for i in range(n)]
        got = executors.ProcessPoolExecutor(order, max_workers=n).run(jobs)
        assert all(len(a) == 1 for a in got.values())

    @pytest.mark.skipif(len(allowed_cpus()) < 2, reason="needs two CPUs")
    def test_pool_jobs_with_process_ranks_spread_them(self, monkeypatch):
        """A pool worker whose job forks process ranks keeps its CPU set,
        so the ranks land on distinct CPUs instead of sharing the one a
        pinned worker would have."""
        from repro.engine import executors  # noqa: PLC0415

        def rank_affinities(order, job):
            return run_spmd(_job_affinity, order.n_ranks, backend=order.backend)

        monkeypatch.setattr(executors, "solve_job", rank_affinities)
        order = SimpleNamespace(n_ranks=2, backend="process")
        jobs = [SimpleNamespace(index=i, predicted_peak_bytes=0) for i in range(2)]
        got = executors.ProcessPoolExecutor(order, max_workers=2).run(jobs)
        for ranks in got.values():
            assert all(len(a) == 1 for a in ranks)
            assert len({a[0] for a in ranks}) == 2

    def test_parallelism_counts_allowed_cpus(self):
        assert available_parallelism() == min(8, len(allowed_cpus()))
        with _affinity({allowed_cpus()[0]}):
            assert available_parallelism() == 1


class TestSequentialDeterminism:
    def test_root_cause_preserved(self):
        with pytest.raises(ValueError, match="rank 1 exploded"):
            run_spmd(_job_fails_on_rank, 3, backend="sequential")


class TestEngineFactory:
    def test_unknown_backend(self):
        with pytest.raises(CommunicatorError):
            get_engine("smoke-signals")

    def test_zero_ranks(self):
        with pytest.raises(CommunicatorError):
            run_spmd(_job_allgather, 0, args=(1,))

    def test_names(self):
        for b in BACKENDS:
            assert get_engine(b).name == b
