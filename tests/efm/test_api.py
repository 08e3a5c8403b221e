"""Tests for the high-level compute_efms facade."""

import numpy as np
import pytest

from repro.efm.api import compute_efms
from repro.engine import executors as executors_mod
from repro.errors import (
    AlgorithmError,
    CommunicatorError,
    PartitionError,
    SchedulerError,
)
from repro.parallel import combinatorial as combinatorial_mod
from repro.models.generators import random_network
from repro.network.parser import network_from_equations
from tests.conftest import solve_in_fresh_interpreter


class TestMethods:
    @pytest.mark.parametrize("method,ranks", [
        ("serial", 1), ("parallel", 3), ("distributed", 2),
    ])
    def test_methods_agree_on_toy(self, toy, method, ranks):
        base = compute_efms(toy)
        other = compute_efms(toy, method=method, n_ranks=ranks)
        assert base.same_modes_as(other)
        assert other.method == method

    def test_combined_with_names(self, toy):
        base = compute_efms(toy)
        run = compute_efms(toy, method="combined", partition=("r6r", "r8r"))
        assert base.same_modes_as(run)
        assert "subsets" in run.meta

    def test_combined_with_qsub_int(self, toy):
        base = compute_efms(toy)
        run = compute_efms(toy, method="combined", partition=2)
        assert base.same_modes_as(run)
        assert len(run.meta["partition"]) == 2

    def test_combined_without_partition_raises(self, toy):
        with pytest.raises(PartitionError):
            compute_efms(toy, method="combined")

    def test_serial_rejects_multiple_ranks(self, toy):
        with pytest.raises(AlgorithmError):
            compute_efms(toy, n_ranks=4)

    def test_unknown_method(self, toy):
        with pytest.raises(AlgorithmError):
            compute_efms(toy, method="quantum")


class TestRemovedRuntimePaths:
    """``thread`` is no MPI backend and ``spmd`` no subset executor:
    naming one fails before any rank or subset job starts, and the error
    lists the available names."""

    def test_thread_backend_rejected(self, toy, monkeypatch):
        started = []
        monkeypatch.setattr(
            combinatorial_mod, "combinatorial_worker",
            lambda *a, **k: started.append(1),
        )
        with pytest.raises(
            CommunicatorError, match="'thread'; available: sequential, process"
        ):
            compute_efms(toy, method="parallel", n_ranks=2, backend="thread")
        assert started == []

    def test_spmd_executor_rejected(self, toy, monkeypatch):
        started = []
        monkeypatch.setattr(
            executors_mod, "solve_job", lambda *a, **k: started.append(1)
        )
        with pytest.raises(
            SchedulerError, match="'spmd'; available: inline, process-pool"
        ):
            compute_efms(
                toy, method="combined", partition=["r6r", "r8r"], executor="spmd"
            )
        assert started == []


class TestCompression:
    def test_compress_false_same_result(self, toy):
        a = compute_efms(toy, compress=True)
        b = compute_efms(toy, compress=False)
        assert a.same_modes_as(b)

    def test_meta_records_compression(self, toy):
        r = compute_efms(toy)
        assert "5x9 -> 4x8" in r.meta["compression"]

    def test_singletons_appended(self):
        # A network whose only mode is resolved during compression.
        net = network_from_equations(
            "chain", ["a : Aext => A", "b : A => B", "c : B => Bext"]
        )
        r = compute_efms(net)
        assert r.n_efms == 1
        assert r.supports()[0].all()  # all three reactions active
        r.validate()

    def test_fully_blocked_network(self):
        net = network_from_equations("dead", ["a : Aext => A", "b : Bext => A"])
        r = compute_efms(net)
        assert r.n_efms == 0


class TestAutoSplit:
    def test_reversible_heavy_network_splits(self):
        net = random_network(4, 8, seed=1001, reversible_fraction=0.8)
        r = compute_efms(net)
        r.validate()
        assert "split" in r.meta

    def test_auto_split_disabled_raises(self):
        from repro.errors import ReversibleIdentityError

        net = random_network(4, 8, seed=1001, reversible_fraction=0.8)
        with pytest.raises(ReversibleIdentityError):
            compute_efms(net, auto_split=False)


class TestOutputShape:
    def test_canonical_order(self, toy):
        r = compute_efms(toy)
        assert np.array_equal(r.fluxes, r.canonical().fluxes)

    def test_columns_follow_original_network(self, toy):
        r = compute_efms(toy)
        assert r.fluxes.shape == (8, 9)
        # r9 flux always equals r3 flux (merged pair).
        j3, j9 = toy.reaction_index("r3"), toy.reaction_index("r9")
        assert np.allclose(r.fluxes[:, j3], r.fluxes[:, j9])


class TestColdSolveImports:
    """A cold solve imports nothing it did not load at ``import
    repro.efm.api``: every module a solve adds is paid for inside its
    timed region (``np.unique`` reads numpy 2.x's lazily loaded
    ``numpy.ma``, for one).

    The guard diffs ``sys.modules`` around the solve instead of asking
    whether ``numpy.ma`` is loaded, so it holds on numpy builds that load
    ``numpy.ma`` eagerly.  Algorithm 3 (``method="combined"``) imports
    its scheduler (:mod:`repro.engine.scheduler` and
    :mod:`repro.engine.executors`) on first use, by design, and nothing
    else: not :mod:`logging`, which its screened-subset records skip when
    the program never loaded it, and no ``numpy`` submodule.
    """

    NETWORKS = {"yeast_1_small": 530, "yeast_2_small": 7331}

    @pytest.mark.parametrize("network", sorted(NETWORKS))
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(method="serial"),
            dict(method="parallel", n_ranks=1),
            dict(method="parallel", n_ranks=2),
        ],
        ids=["serial", "parallel-1", "parallel-2"],
    )
    def test_solve_imports_nothing(self, network, kwargs):
        run = solve_in_fresh_interpreter(network, **kwargs)
        assert run.n_efms == self.NETWORKS[network]
        assert run.added == frozenset()

    @pytest.mark.parametrize("network", sorted(NETWORKS))
    def test_combined_solve_imports_no_numpy_module(self, network):
        run = solve_in_fresh_interpreter(network, method="combined", partition=5)
        assert run.n_efms == self.NETWORKS[network]
        assert run.added == {"repro.engine.scheduler", "repro.engine.executors"}
