"""Replica-consistency fingerprint checks for dynamic row selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.core.serial import nullspace_algorithm
from repro.errors import AlgorithmError
from repro.parallel._driver_common import (
    check_selection_consistency,
    selection_debug_enabled,
)
from repro.parallel.combinatorial import combinatorial_parallel
from repro.parallel.distributed import distributed_parallel
from tests.conftest import assert_same_modes


class _FakeComm:
    """Allgather stub returning a pre-baked per-rank payload list."""

    def __init__(self, payloads):
        self.payloads = payloads

    def allgather(self, _obj):
        return list(self.payloads)


class TestConsistencyCheck:
    def test_agreement_passes(self):
        fp = (5, 100, 12345)
        check_selection_consistency(_FakeComm([fp, fp, fp]), fp)

    def test_divergence_raises_with_ranks(self):
        good = (5, 100, 12345)
        bad = (6, 100, 12345)
        with pytest.raises(AlgorithmError, match=r"ranks \[2\]"):
            check_selection_consistency(
                _FakeComm([good, good, bad]), good
            )

    def test_enabled_by_trace_or_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SELECTION_DEBUG", raising=False)
        assert not selection_debug_enabled(AlgorithmOptions())
        assert selection_debug_enabled(AlgorithmOptions(record_trace=True))
        monkeypatch.setenv("REPRO_SELECTION_DEBUG", "1")
        assert selection_debug_enabled(AlgorithmOptions())


class TestDebugModeEndToEnd:
    """The fingerprint allgather runs on every iteration in debug/trace
    mode and must be invisible to the result."""

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_combinatorial_with_trace(self, toy_problem, backend):
        opts = AlgorithmOptions(ordering="dynamic", record_trace=True)
        res = combinatorial_parallel(
            toy_problem, 3, backend=backend, options=opts
        )
        plain = nullspace_algorithm(toy_problem, options=opts)
        assert_same_modes(
            res.result.efms_input_order(), plain.efms_input_order()
        )

    def test_env_var_enables_check(self, toy_problem, monkeypatch):
        monkeypatch.setenv("REPRO_SELECTION_DEBUG", "1")
        opts = AlgorithmOptions(ordering="dynamic")
        res = combinatorial_parallel(toy_problem, 2, options=opts)
        plain = nullspace_algorithm(toy_problem, options=opts)
        assert_same_modes(
            res.result.efms_input_order(), plain.efms_input_order()
        )

    def test_distributed_with_trace(self, toy_problem):
        opts = AlgorithmOptions(ordering="dynamic", record_trace=True)
        res = distributed_parallel(toy_problem, 3, options=opts)
        plain = nullspace_algorithm(toy_problem, options=opts)
        assert_same_modes(res.efms_input_order(), plain.efms_input_order())
