"""Unit tests for communication tracing and payload sizing."""

import numpy as np
import pytest

from repro.cluster.platform import CALHOUN
from repro.core.state import CandidateBatch, ModeMatrix
from repro.linalg.bitset import PackedSupports
from repro.mpi.comm import payload_nbytes
from repro.mpi.spmd import run_spmd
from repro.mpi.tracing import TracingCommunicator


def _traced_job(comm):
    traced = TracingCommunicator(comm)
    payload = np.zeros(128, dtype=np.float64)  # 1024 bytes
    traced.allgather(payload)
    if traced.rank == 0:
        traced.send(payload, dest=1)
    if traced.rank == 1:
        traced.recv(0)
    traced.barrier()
    return traced.trace


class TestPayloadNbytes:
    def test_ndarray(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_mode_matrix_uses_nbytes_method(self):
        m = ModeMatrix(np.ones((4, 8)))
        assert payload_nbytes(m) == m.nbytes()

    def test_array_tuple(self):
        objs = [np.zeros(4), np.zeros(6)]
        assert payload_nbytes(objs) == 80

    def test_generic_object_pickled(self):
        assert payload_nbytes({"a": 1}) > 0

    def test_none(self):
        assert payload_nbytes(None) > 0  # pickled size, small

    def test_nested_containers_summed_recursively(self):
        payload = (np.zeros(4), [np.zeros(2), np.zeros(2)], np.zeros(8))
        assert payload_nbytes(payload) == (4 + 2 + 2 + 8) * 8

    def test_candidate_batch_wire_tuple(self):
        """Regression: the deferred pipeline's allgather payload must be
        measured by its array contents, not a container pickle."""
        n, q = 6, 70  # two 64-bit support words per candidate
        words = np.zeros((n, 2), dtype=np.uint64)
        idx = np.arange(n, dtype=np.int64)
        batch = CandidateBatch(PackedSupports(words, q), idx, idx, 0)
        wire = batch.to_wire()
        # Wire carries packed words + two int32 index arrays; the
        # coefficients are derived on receive, never stored or shipped.
        expected = words.nbytes + 2 * 4 * n
        assert payload_nbytes(wire) == expected
        assert expected < batch.nbytes()
        # Packed wire beats the dense (values + supports) payload by far.
        dense = batch.materialize(np.ones((n, q), dtype=np.int64))
        assert payload_nbytes((dense.values, dense.supports.words)) > 4 * expected


class TestTracingCommunicator:
    def test_counters(self):
        traces = run_spmd(_traced_job, 3, backend="sequential")
        t0 = traces[0]
        # allgather: bytes_out = 1024 * (size-1); one extra p2p send.
        assert t0.bytes_sent == 1024 * 2 + 1024
        assert t0.n_messages == 2 + 1
        t2 = traces[2]
        assert t2.bytes_sent == 1024 * 2
        assert t2.bytes_received == 1024 * 2

    def test_allgather_bytes_excludes_p2p(self):
        traces = run_spmd(_traced_job, 3, backend="sequential")
        # Rank 0 also does a p2p send; allgather_bytes counts only the
        # collective's outbound traffic.
        assert traces[0].allgather_bytes == 1024 * 2
        assert traces[0].bytes_sent == traces[0].allgather_bytes + 1024

    def test_recv_bytes_counted(self):
        traces = run_spmd(_traced_job, 2, backend="sequential")
        t1 = traces[1]
        assert t1.bytes_received == 1024 * 1 + 1024  # allgather peer + p2p

    def test_merge_and_clear(self):
        traces = run_spmd(_traced_job, 2, backend="sequential")
        merged = traces[0].merge(traces[1])
        assert merged.bytes_sent == traces[0].bytes_sent + traces[1].bytes_sent
        traces[0].clear()
        assert traces[0].bytes_sent == 0


class TestModeledCommunication:
    @pytest.mark.parametrize("backend", ("sequential", "process"))
    def test_modeled_bytes_are_logical_payload_sum(self, backend):
        """The platform model replays logical payload bytes, never the
        host serializer's output (pickle adds framing the model must not
        see)."""
        traces = run_spmd(_traced_job, 3, backend=backend)
        t0 = traces[0]
        # Two pickles (allgather, send), each larger than its payload.
        assert t0.ser_bytes > 2 * 1024
        logical_out = 1024 * 2 + 1024  # allgather to 2 peers + one p2p send
        logical_in = 1024 * 2  # allgather from 2 peers
        assert (t0.bytes_sent, t0.bytes_received) == (logical_out, logical_in)
        expected = 3 * CALHOUN.latency + (logical_out + logical_in) / CALHOUN.bandwidth
        assert CALHOUN.t_communicate(t0) == pytest.approx(expected, rel=1e-12)
