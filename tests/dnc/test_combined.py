"""Tests for the combined parallel Nullspace Algorithm (Algorithm 3)."""

import numpy as np
import pytest

from repro.cluster.memory import MemoryModel
from repro.core import iterstream
import repro.core.kernel as core_kernel
from repro.core.kernel import build_problem
from repro.core.serial import nullspace_algorithm
from repro.dnc.combined import combined_parallel, solve_subset
from repro.dnc.selection import select_partition_reactions
from repro.dnc.subsets import SubsetSpec
from repro.efm.api import compute_efms
from repro.errors import PartitionError
from repro.linalg import modular
from repro.models.generators import random_network
from repro.models.variants import yeast_1_small
from repro.network.compression import compress_network
from tests.conftest import assert_same_modes, solve_in_fresh_interpreter


class TestToyPartition:
    def test_union_equals_serial(self, toy_record, toy_problem):
        run = combined_parallel(toy_record.reduced, ("r6r", "r8r"), 2)
        serial = nullspace_algorithm(toy_problem)
        assert_same_modes(serial.efms_input_order(), run.efms())

    def test_subsets_disjoint(self, toy_record):
        run = combined_parallel(toy_record.reduced, ("r6r", "r8r"), 1)
        j6 = toy_record.reduced.reaction_index("r6r")
        j8 = toy_record.reduced.reaction_index("r8r")
        for s in run.subsets:
            for row in s.efms:
                assert (abs(row[j6]) > 1e-9) == ("r6r" in s.spec.nonzero)
                assert (abs(row[j8]) > 1e-9) == ("r8r" in s.spec.nonzero)

    def test_single_reaction_partition(self, toy_record, toy_problem):
        run = combined_parallel(toy_record.reduced, ("r8r",), 1)
        assert len(run.subsets) == 2
        serial = nullspace_algorithm(toy_problem)
        assert_same_modes(serial.efms_input_order(), run.efms())

    def test_irreversible_partition_reaction(self, toy_record, toy_problem):
        # Partitioning across an irreversible reaction must filter by sign.
        run = combined_parallel(toy_record.reduced, ("r7",), 1)
        serial = nullspace_algorithm(toy_problem)
        assert_same_modes(serial.efms_input_order(), run.efms())

    def test_three_reaction_partition(self, toy_record, toy_problem):
        run = combined_parallel(toy_record.reduced, ("r7", "r6r", "r8r"), 1)
        assert len(run.subsets) == 8
        serial = nullspace_algorithm(toy_problem)
        assert_same_modes(serial.efms_input_order(), run.efms())


class TestRandomNetworks:
    @pytest.mark.parametrize("seed", range(8))
    def test_union_invariant(self, seed):
        net = random_network(5, 9, seed=seed, reversible_fraction=0.3)
        rec = compress_network(net)
        red = rec.reduced
        if red.n_reactions < 4:
            pytest.skip("over-compressed instance")
        serial = nullspace_algorithm(build_problem(red))
        partition = red.reaction_names[-2:]
        run = combined_parallel(red, partition, 2)
        assert_same_modes(serial.efms_input_order(), run.efms())


class TestSubsetMechanics:
    def test_empty_subset_graceful(self, toy_record):
        # Zeroing r1 and r5 cuts all glucose input paths in some subsets.
        run = combined_parallel(toy_record.reduced, ("r1", "r5"), 1)
        total = sum(s.n_efms for s in run.subsets)
        assert total == 8  # union still complete

    def test_solve_subset_reports_candidates(self, toy_record):
        spec = SubsetSpec(subset_id=3, partition=("r6r", "r8r"))
        result = solve_subset(toy_record.reduced, spec, 1)
        assert result.completed
        assert result.n_candidates >= 0
        assert result.wall_time > 0

    def test_oom_captured_not_raised(self, toy_record):
        spec = SubsetSpec(subset_id=0, partition=("r6r", "r8r"))
        result = solve_subset(
            toy_record.reduced, spec, 1,
            memory_model=MemoryModel(capacity_bytes=4),
        )
        assert not result.completed
        assert result.oom is not None
        assert result.n_efms == 0

    def test_unknown_partition_reaction(self, toy_record):
        with pytest.raises(PartitionError):
            combined_parallel(toy_record.reduced, ("bogus",), 1)

    def test_subset_ids_filter(self, toy_record):
        run = combined_parallel(
            toy_record.reduced, ("r6r", "r8r"), 1, subset_ids=[0, 3]
        )
        assert [s.spec.subset_id for s in run.subsets] == [0, 3]
        assert run.n_efms == 4  # two of the four 2-mode subsets

    def test_incomplete_union_raises(self, toy_record):
        run = combined_parallel(
            toy_record.reduced, ("r6r", "r8r"), 1,
            memory_model=MemoryModel(capacity_bytes=4),
        )
        assert not run.complete
        from repro.errors import AlgorithmError

        with pytest.raises(AlgorithmError):
            run.efms()

    def test_candidate_counts_sum(self, toy_record):
        run = combined_parallel(toy_record.reduced, ("r6r", "r8r"), 1)
        assert run.total_candidates == sum(s.n_candidates for s in run.subsets)


class TestYeastOneRank:
    """Yeast-I-small, q_sub=5, one rank: the configuration of the
    end-to-end ``y1-dnc5`` workload."""

    PARTITION = ("R22r", "R32r", "R81r", "R96r", "R102r")

    @pytest.fixture(scope="class")
    def reduced(self):
        return compress_network(yeast_1_small()).reduced

    def test_rank_test_calls_not_above_spmd_path(self, monkeypatch):
        calls = []
        real = iterstream.rank_test

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(iterstream, "rank_test", counted)
        result = compute_efms(
            yeast_1_small(), method="combined", partition=5, executor="inline"
        )
        assert result.n_efms == 530
        assert result.meta["n_screened"] == 24
        # 248 with every subset enumerated through the one-rank SPMD path.
        assert 0 < len(calls) <= 248

    def test_one_rank_problem_and_no_subset_elimination(self, monkeypatch):
        """The subsets are screened, prepared and rank-tested from the
        reduced network's one rank problem: the run builds exactly one
        :class:`~repro.linalg.modular.ModularProblem` and eliminates no
        subset stoichiometry (``kernel_identity_form``)."""
        reduced = compress_network(yeast_1_small()).reduced
        partition = select_partition_reactions(reduced, 5)
        monkeypatch.setattr(modular, "_REGISTRY", {})
        monkeypatch.setattr(modular, "_ID_CACHE", {})
        built, eliminated = [], []
        init = modular.ModularProblem.__init__

        def counted_init(self, n_perm):
            built.append(n_perm.shape)
            init(self, n_perm)

        monkeypatch.setattr(modular.ModularProblem, "__init__", counted_init)
        kernel_identity_form = core_kernel.kernel_identity_form

        def counted_kernel(*args, **kwargs):
            eliminated.append(1)
            return kernel_identity_form(*args, **kwargs)

        monkeypatch.setattr(core_kernel, "kernel_identity_form", counted_kernel)
        run = combined_parallel(reduced, partition, 1, executor="inline")
        assert run.n_efms == 530 and run.n_screened == 24
        assert built == [reduced.shape]
        assert eliminated == []

    def test_oom_lands_in_subset_result(self, reduced):
        spec = SubsetSpec(subset_id=30, partition=self.PARTITION)
        ok = solve_subset(reduced, spec, 1)
        assert not ok.screened and ok.n_efms > 0
        result = solve_subset(
            reduced, spec, 1, memory_model=MemoryModel(capacity_bytes=2_000)
        )
        assert result.oom is not None and not result.completed
        assert result.n_efms == 0

    def test_degrade_completes(self, reduced):
        mm = MemoryModel(capacity_bytes=20_000)
        recorded = combined_parallel(reduced, self.PARTITION, 1, memory_model=mm)
        assert any(s.oom is not None for s in recorded.subsets)
        run = combined_parallel(
            reduced, self.PARTITION, 1, memory_model=mm, on_oom="degrade"
        )
        assert run.complete and run.n_efms == 530
        assert run.meta["n_degraded"] >= 1
        assert run.n_screened == 24

    def test_resume_keeps_screened_count(self, tmp_path):
        d = tmp_path / "ckpt"
        kw = dict(method="combined", partition=5, checkpoint_path=d)
        first = compute_efms(yeast_1_small(), **kw)
        resumed = compute_efms(yeast_1_small(), **kw)
        assert resumed.meta["scheduler"]["n_resumed"] == 32
        assert first.meta["n_screened"] == resumed.meta["n_screened"] == 24
        assert np.array_equal(first.fluxes, resumed.fluxes)


def _combined_solve_modules() -> frozenset[str]:
    """Modules loaded once ``compute_efms(yeast_1_small(), method="combined",
    partition=5)`` has run in a fresh interpreter."""
    run = solve_in_fresh_interpreter(
        "yeast_1_small", method="combined", partition=5
    )
    assert run.n_efms == 530, run.n_efms
    return run.loaded


def test_combined_solve_does_not_import_scipy_optimize():
    """The subset screen is exact linear algebra: a D&C solve never pays
    for ``import scipy.optimize`` (longer than the whole solve)."""
    assert "scipy.optimize" not in _combined_solve_modules()


def test_inline_combined_solve_imports_no_process_machinery():
    """An inline D&C solve forks nothing and writes no checkpoint
    manifest, so it never imports ``multiprocessing`` or ``json``."""
    loaded = _combined_solve_modules()
    assert "multiprocessing" not in loaded
    assert "json" not in loaded
