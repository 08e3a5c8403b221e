"""Tests for checkpoint/resume of long runs."""

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.core.checkpoint import Checkpoint, problem_fingerprint
from repro.core.kernel import build_problem
from repro.core.serial import nullspace_algorithm
from repro.engine.context import RunContext
from repro.errors import AlgorithmError, OutOfMemoryError
from repro.models.variants import yeast_1_small
from repro.network.compression import compress_network
from tests.conftest import assert_same_modes


class TestFingerprint:
    def test_stable(self, toy_problem):
        a = problem_fingerprint(toy_problem)
        b = problem_fingerprint(toy_problem)
        assert a == b

    def test_sensitive_to_problem(self, toy_problem, toy_record):
        other = build_problem(toy_record.reduced, force_last=("r6r",))
        a = problem_fingerprint(toy_problem)
        b = problem_fingerprint(other)
        assert a != b


class TestRunAndResume:
    def test_fresh_run_matches_plain(self, toy_problem, tmp_path):
        path = tmp_path / "run.ckpt"
        res = nullspace_algorithm(toy_problem, checkpoint_path=path)
        plain = nullspace_algorithm(toy_problem)
        assert_same_modes(res.efms_input_order(), plain.efms_input_order())
        assert path.exists()

    def test_interrupt_and_resume(self, toy_problem, tmp_path):
        path = tmp_path / "run.ckpt"

        # Simulate the paper's interruption: blow up mid-run.
        calls = {"n": 0}

        def bomb(k, modes):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OutOfMemoryError("simulated node death", iteration=k)

        with pytest.raises(OutOfMemoryError):
            nullspace_algorithm(
                toy_problem, checkpoint_path=path, memory_check=bomb,
                context=RunContext(checkpoint_every=1),
            )
        assert path.exists()
        partial = Checkpoint.load(path)
        assert partial.next_row < toy_problem.q

        # Resume to completion; the result must equal an uninterrupted run.
        res = nullspace_algorithm(toy_problem, checkpoint_path=path)
        plain = nullspace_algorithm(toy_problem)
        assert_same_modes(res.efms_input_order(), plain.efms_input_order())
        # Statistics cover all iterations exactly once.
        assert len(res.stats.iterations) == len(plain.stats.iterations)
        assert res.stats.total_candidates == plain.stats.total_candidates

    def test_resume_noop_when_complete(self, toy_problem, tmp_path):
        path = tmp_path / "run.ckpt"
        first = nullspace_algorithm(toy_problem, checkpoint_path=path)
        again = nullspace_algorithm(toy_problem, checkpoint_path=path)
        assert again.n_efms == first.n_efms
        assert len(again.stats.iterations) == len(first.stats.iterations)

    def test_wrong_problem_rejected(self, toy_problem, toy_record, tmp_path):
        path = tmp_path / "run.ckpt"
        nullspace_algorithm(toy_problem, checkpoint_path=path)
        other = build_problem(toy_record.reduced, force_last=("r6r",))
        with pytest.raises(AlgorithmError, match="different problem"):
            nullspace_algorithm(other, checkpoint_path=path)

    def test_checkpoint_every_n(self, toy_problem, tmp_path):
        path = tmp_path / "run.ckpt"
        res = nullspace_algorithm(
            toy_problem, checkpoint_path=path,
            context=RunContext(checkpoint_every=3),
        )
        assert res.n_efms == 8
        # Final snapshot always written.
        assert Checkpoint.load(path).next_row == toy_problem.q

    def test_python_int_run_resumes(self, tmp_path):
        # The pi-scaled column puts the modes past int64 at the first
        # combination; the checkpoint stores the Python-int rows and the
        # resume reproduces the uninterrupted EFM set exactly.
        from repro.efm.api import build_problem_with_split
        from tests.core.test_ranktest_parity import _scaled_column

        net = _scaled_column(yeast_1_small(), "R26", np.pi)
        problem, _ = build_problem_with_split(compress_network(net).reduced)
        path = tmp_path / "pi.ckpt"
        mid = (problem.first_row + problem.q) // 2
        partial = nullspace_algorithm(problem, checkpoint_path=path, stop_row=mid)
        assert partial.modes.values.dtype == object
        assert Checkpoint.load(path).modes.values.tolist() == (
            partial.modes.values.tolist()
        )
        res = nullspace_algorithm(problem, checkpoint_path=path)
        plain = nullspace_algorithm(problem)
        assert plain.stats.total_int_switches >= 1
        assert sorted(res.modes.values.tolist()) == sorted(
            plain.modes.values.tolist()
        )

    def test_stats_roundtrip_through_disk(self, toy_problem, tmp_path):
        path = tmp_path / "run.ckpt"
        res = nullspace_algorithm(toy_problem, checkpoint_path=path)
        ck = Checkpoint.load(path)
        assert ck.stats.total_candidates == res.stats.total_candidates
        assert [it.reaction for it in ck.stats.iterations] == [
            it.reaction for it in res.stats.iterations
        ]

    def test_old_version_refused(self, toy_problem, tmp_path):
        # A version-2 file stores per-iteration counters IterationStats no
        # longer has; load must refuse it with a typed error, not a
        # TypeError from the stats constructor.
        path = tmp_path / "run.ckpt"
        nullspace_algorithm(toy_problem, checkpoint_path=path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["version"] = np.int64(2)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(AlgorithmError, match="version 2 unsupported"):
            Checkpoint.load(path)

    def test_version_3_resume_refused(self, toy_problem, tmp_path):
        # A version-3 fingerprint hashed the rank tolerance the options no
        # longer carry; resuming must fail with a typed error naming the
        # format version, not a KeyError or a foreign-problem complaint.
        path = tmp_path / "run.ckpt"
        nullspace_algorithm(toy_problem, checkpoint_path=path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["version"] = np.int64(3)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(AlgorithmError, match="version 3 unsupported"):
            nullspace_algorithm(toy_problem, checkpoint_path=path)

    def test_version_4_resume_refused(self, toy_problem, tmp_path):
        # A version-4 file stores normalized float modes; the integer
        # run must refuse it, naming both format versions.
        path = tmp_path / "run.ckpt"
        nullspace_algorithm(toy_problem, checkpoint_path=path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["version"] = np.int64(4)
        arrays["values"] = arrays["values"].astype(np.float64)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(
            AlgorithmError, match=r"version 4 unsupported \(expected 6\)"
        ):
            nullspace_algorithm(toy_problem, checkpoint_path=path)

    def test_version_5_resume_refused(self, toy_problem, tmp_path):
        # A version-5 fingerprint hashed the acceptance test, which is gone;
        # the run must refuse the file by version, naming both versions,
        # not report it as a foreign problem.
        path = tmp_path / "run.ckpt"
        nullspace_algorithm(toy_problem, checkpoint_path=path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["version"] = np.int64(5)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(
            AlgorithmError, match=r"version 5 unsupported \(expected 6\)"
        ):
            nullspace_algorithm(toy_problem, checkpoint_path=path)

    def test_medium_network_resume_equivalence(self, tmp_path):
        """Interrupt a real workload halfway; the resumed result equals
        the straight-through run bit-for-bit on supports."""
        rec = compress_network(yeast_1_small())
        from repro.efm.api import build_problem_with_split

        problem, _ = build_problem_with_split(rec.reduced)
        path = tmp_path / "yeast.ckpt"
        mid = (problem.first_row + problem.q) // 2

        res_partial = nullspace_algorithm(
            problem, checkpoint_path=path, stop_row=mid
        )
        assert not res_partial.complete
        res = nullspace_algorithm(problem, checkpoint_path=path)
        plain = nullspace_algorithm(problem)
        assert np.array_equal(
            np.sort(res.modes.supports.words, axis=0),
            np.sort(plain.modes.supports.words, axis=0),
        )


class TestRealizedRowOrder:
    def test_row_order_roundtrips(self, toy_problem, tmp_path):
        path = tmp_path / "run.ckpt"
        opts = AlgorithmOptions(ordering="dynamic")
        nullspace_algorithm(toy_problem, checkpoint_path=path, options=opts)
        ck = Checkpoint.load(path)
        assert ck.ordering == "dynamic"
        assert sorted(ck.row_order) == list(
            range(toy_problem.first_row, toy_problem.q)
        )
        assert ck.next_row == toy_problem.first_row + len(ck.row_order)

    def test_dynamic_interrupt_and_resume(self, toy_problem, tmp_path):
        path = tmp_path / "run.ckpt"
        opts = AlgorithmOptions(ordering="dynamic")
        calls = {"n": 0}

        def bomb(k, modes):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OutOfMemoryError("simulated node death", iteration=k)

        with pytest.raises(OutOfMemoryError):
            nullspace_algorithm(
                toy_problem, checkpoint_path=path, memory_check=bomb,
                context=RunContext(options=opts, checkpoint_every=1),
            )
        partial = Checkpoint.load(path)
        assert len(partial.row_order) >= 1
        # Resume replays the realized prefix and completes identically to
        # an uninterrupted dynamic run.
        res = nullspace_algorithm(toy_problem, checkpoint_path=path, options=opts)
        plain = nullspace_algorithm(toy_problem, options=opts)
        assert_same_modes(res.efms_input_order(), plain.efms_input_order())
        assert len(res.stats.iterations) == len(plain.stats.iterations)

    def test_ordering_mismatch_rejected(self, toy_problem, tmp_path):
        path = tmp_path / "run.ckpt"
        nullspace_algorithm(
            toy_problem, checkpoint_path=path,
            stop_row=toy_problem.first_row + 2,
            context=RunContext(
                options=AlgorithmOptions(ordering="dynamic"), checkpoint_every=1
            ),
        )
        with pytest.raises(AlgorithmError, match="ordering"):
            nullspace_algorithm(
                toy_problem, checkpoint_path=path,
                options=AlgorithmOptions(ordering="natural"),
            )
