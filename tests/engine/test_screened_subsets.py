"""Screened subsets never become work.

The scheduler's plan screens yeast-I-small's ``q_sub = 5`` tail partition
(the ``y1-dnc5`` benchmark workload) once, on its subset lattice: 24 of
the 32 subsets are proven empty there and must never reach an executor,
be re-screened by a surviving subset's solve, or be re-screened by the
degraded path.

``REPRO_TEST_EXECUTORS`` (comma-separated names) restricts the two
executors (``inline``, ``process-pool``), as in
``test_executor_equivalence``.  Solves in pool workers happen in
forked children, so the spies append to a file rather than a list.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.dnc.combined as combined
from repro.cluster.memory import MemoryModel
from repro.dnc.combined import combined_parallel
from repro.engine import executors as executors_mod
from repro.models.variants import yeast_1_small
from repro.network.compression import compress_network

from tests.engine.test_executor_equivalence import _selected_executors

PARTITION = ("R22r", "R32r", "R81r", "R96r", "R102r")
SURVIVORS = [0, 1, 2, 3, 28, 29, 30, 31]


@pytest.fixture(scope="module")
def reduced():
    return compress_network(yeast_1_small()).reduced


@pytest.fixture(scope="module")
def inline_run(reduced):
    return combined_parallel(reduced, PARTITION, 1)


class CallLog:
    """Fork-safe record of calls: one appended line per call."""

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def spy(self, fn, key):
        def spied(*args, **kwargs):
            with self.path.open("a") as f:
                f.write(f"{key(*args)}\n")
            return fn(*args, **kwargs)

        return spied

    def lines(self) -> list[str]:
        return self.path.read_text().split()


@pytest.fixture
def solved(tmp_path, monkeypatch) -> CallLog:
    """Logs the canonical index of every job that reaches ``solve_job``."""
    log = CallLog(tmp_path / "solve_job.log")
    spied = log.spy(executors_mod.solve_job, lambda order, job: job.index)
    monkeypatch.setattr(executors_mod, "solve_job", spied)
    return log


@pytest.fixture
def screens(tmp_path, monkeypatch) -> CallLog:
    """Logs every ``screen_blocked`` call of the D&C layer."""
    log = CallLog(tmp_path / "screens.log")
    spied = log.spy(combined.screen_blocked, lambda parent, gone: len(gone))
    monkeypatch.setattr(combined, "screen_blocked", spied)
    return log


@pytest.mark.parametrize("executor", _selected_executors())
def test_only_survivors_reach_the_executor(
    reduced, inline_run, solved, screens, executor
):
    run = combined_parallel(reduced, PARTITION, 1, executor=executor, max_workers=2)
    assert sorted(int(i) for i in solved.lines()) == SURVIVORS
    # The plan's lattice pass is the only screen: no solve re-screens.
    assert len(screens.lines()) == run.meta["screen_computed"] == 11
    assert run.meta["screen_inherited"] == 21
    assert run.n_screened == inline_run.n_screened == 24
    assert np.array_equal(run.efms(), inline_run.efms())
    assert run.n_efms == 530
    for s in run.subsets:
        assert s.screened == (s.spec.subset_id not in SURVIVORS)
        if s.screened:
            assert s.n_efms == 0 and s.predicted_peak_bytes == 0


@pytest.mark.parametrize("executor", _selected_executors())
def test_resume_restores_screened_subsets_without_solving(
    reduced, inline_run, solved, tmp_path, executor
):
    d = tmp_path / "ckpt"
    kw = dict(executor=executor, max_workers=2, checkpoint_dir=d)
    first = combined_parallel(reduced, PARTITION, 1, **kw)
    assert len(list(d.glob("subset_*.npz"))) == 32
    assert len(solved.lines()) == len(SURVIVORS)
    resumed = combined_parallel(reduced, PARTITION, 1, **kw)
    assert len(solved.lines()) == len(SURVIVORS)  # nothing solved again
    assert resumed.meta["n_resumed"] == 32
    assert first.n_screened == resumed.n_screened == 24
    assert np.array_equal(resumed.efms(), inline_run.efms())


def test_degraded_run_does_not_rescreen(reduced, inline_run, screens):
    mm = MemoryModel(capacity_bytes=20_000)
    run = combined_parallel(reduced, PARTITION, 1, memory_model=mm, on_oom="degrade")
    assert run.complete and run.meta["n_degraded"] >= 1
    assert run.n_screened == 24
    assert len(screens.lines()) == 11
    assert np.array_equal(run.efms(), inline_run.efms())
