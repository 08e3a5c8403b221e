"""Unit tests for the one wire: payload round trips over the process
backend, the transport counters, the comm-timeout resolution and payload
measurement."""

import pickle
from fractions import Fraction

import numpy as np
import pytest

from repro.config import resolve_comm_timeout
from repro.mpi.comm import WireCounters, pack_message, payload_nbytes
from repro.mpi.spmd import get_engine, run_spmd


def deep_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b)
        )
    if isinstance(a, (tuple, list)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(deep_equal(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def _same_exact_payload(got, sent):
    return list(got[0]) == list(sent[0]) and got[1:] == sent[1:]


def _job_check_from_rank_1(comm, obj, same):
    """Rank 1 offers ``obj``; rank 0 compares what the transport
    delivered with its own copy (inherited through the fork)."""
    got = comm.allgather(obj if comm.rank == 1 else None)[1]
    return same(got, obj)


def roundtrip_ok(obj, same=deep_equal):
    """Ship ``obj`` between two forked ranks; rank 0's verdict."""
    return run_spmd(
        _job_check_from_rank_1, 2, backend="process", args=(obj, same)
    )[0]


class TestRoundtrip:
    """Every payload shape the drivers send survives the pipe transport
    with its type, dtype, byte order and shape."""

    @pytest.mark.parametrize(
        "obj",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            3.14159,
            "unicode: ∅→µ",
            b"raw bytes",
            (),
            [],
            (1, "two", 3.0, None),
            [[1, 2], (3, [4])],
        ],
    )
    def test_scalars_and_containers(self, obj):
        assert roundtrip_ok(obj)

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(12, dtype=np.float64),
            np.arange(6, dtype=np.int32).reshape(2, 3),
            np.array([], dtype=np.uint64),
            np.zeros((0, 4), dtype=np.uint64),
            np.array(7.5),  # 0-d
            np.array([True, False, True]),
            np.arange(4, dtype=">f8"),  # big-endian
        ],
    )
    def test_arrays(self, arr):
        assert roundtrip_ok(arr)

    def test_noncontiguous_and_fortran(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        for arr in (base[:, ::2], np.asfortranarray(base)):
            assert roundtrip_ok(arr)

    def test_wire_tuple(self):
        words = np.arange(20, dtype=np.uint64).reshape(10, 2)
        pi = np.arange(10, dtype=np.int32)
        pj = (np.arange(10, dtype=np.int32) + 5)
        assert roundtrip_ok((words, pi, pj))

    def test_exact_and_generic_payloads(self):
        """Exact-arithmetic rows (object arrays of Fractions), big ints
        and dicts travel as they are."""
        rows = np.array([Fraction(1, 3), Fraction(2, 5)], dtype=object)
        assert roundtrip_ok((rows, 2**100, {"a": 1}), _same_exact_payload)


class TestCounters:
    def test_pack_message_counts_once(self):
        c = WireCounters()
        payload = np.arange(8, dtype=np.float64)
        blob = pack_message(payload, c)
        assert c.n_ser == 1
        assert c.ser_bytes == len(blob)
        assert np.array_equal(pickle.loads(blob), payload)
        pack_message({"unknown": 1}, c)
        assert c.n_ser == 2
        pack_message("control", None)  # control traffic is not counted
        assert c.n_ser == 2

    def test_snapshot_order(self):
        c = WireCounters()
        c.wire_out, c.wire_in, c.ser_bytes, c.n_ser, c.msgs_out = 1, 2, 3, 4, 5
        assert c.snapshot() == (1, 2, 3, 4, 5)

    def test_ctrl_plane_separate_from_wire_out(self):
        c = WireCounters()
        c.ctrl_out += 96
        assert c.wire_out == 0  # barrier traffic is not payload


class TestResolution:
    def test_resolve_timeout(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMM_TIMEOUT_S", raising=False)
        assert resolve_comm_timeout() == 300.0
        assert resolve_comm_timeout(12.5) == 12.5
        monkeypatch.setenv("REPRO_COMM_TIMEOUT_S", "45")
        assert resolve_comm_timeout() == 45.0
        # The engines and the options default read the same resolver.
        assert get_engine("process").comm_timeout == 45.0
        with pytest.raises(ValueError, match="positive"):
            resolve_comm_timeout(0)
        monkeypatch.setenv("REPRO_COMM_TIMEOUT_S", "-1")
        with pytest.raises(ValueError, match="positive"):
            get_engine("thread")


class TestPayloadNbytes:
    """Pins for the logical payload measurement (dict payloads used to
    fall through to whole-container pickle)."""

    def test_deferred_wire_tuple_measured_by_contents(self):
        # The deferred pipeline's allgather triple for 100 candidates over
        # 2 support words: uint64 words + two int32 index vectors.
        words = np.zeros((100, 2), dtype=np.uint64)
        pi = np.zeros(100, dtype=np.int32)
        pj = np.zeros(100, dtype=np.int32)
        assert payload_nbytes((words, pi, pj)) == 100 * 16 + 400 + 400

    def test_distributed_active_tuple(self):
        vals = np.zeros((10, 7))
        w = np.zeros((10, 1), dtype=np.uint64)
        assert payload_nbytes((vals, w, vals, w)) == 2 * (560 + 80)

    def test_dict_recurses_over_values(self):
        arr = np.zeros(64, dtype=np.float64)
        assert payload_nbytes({"a": arr, "b": [arr, arr]}) == 3 * 512

    def test_empty_containers(self):
        assert payload_nbytes(()) == 0
        assert payload_nbytes({}) == 0
