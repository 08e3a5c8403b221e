"""Executor/schedule equivalence: the EFM set is bit-identical however
the scheduler dispatches the divide-and-conquer subsets.

The fast tests cover the toy network; the slow property test is the
acceptance criterion from the scheduler work — yeast-I-small with a
``q_sub = 5`` tail partition (32 subsets, 530 EFMs) across the inline
and process-pool (2 and 4 workers) executors plus an inline run in
largest-predicted-peak-first order, compared with ``np.array_equal`` (no
canonicalization: the unions must match bit for bit).

``REPRO_TEST_EXECUTORS`` (comma-separated names) restricts which of the
two executors the slow test exercises; the CI matrix runs one leg with
``inline`` and one with ``process-pool``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cluster.memory import MemoryModel
from repro.dnc.combined import combined_parallel
from repro.efm.api import compute_efms
from repro.engine.executors import EXECUTOR_NAMES
from repro.models.toy import toy_network
from repro.models.variants import yeast_1_small
from repro.network.compression import compress_network

PARTITION = ("r6r", "r8r")

#: A memory model nothing outgrows: the plan predicts every subset's
#: peak and the jobs run largest first, with no refinement.
AMPLE = MemoryModel(capacity_bytes=1 << 40)


def _selected_executors() -> list[str]:
    raw = os.environ.get("REPRO_TEST_EXECUTORS", "")
    if not raw.strip():
        return list(EXECUTOR_NAMES)
    picked = [name.strip() for name in raw.split(",") if name.strip()]
    unknown = set(picked) - set(EXECUTOR_NAMES)
    if unknown:
        raise ValueError(f"REPRO_TEST_EXECUTORS names unknown executors: {unknown}")
    return picked


@pytest.fixture(scope="module")
def toy_reduced():
    return compress_network(toy_network()).reduced


@pytest.mark.parametrize("executor", EXECUTOR_NAMES)
def test_toy_union_identical_across_executors(toy_reduced, executor):
    base = combined_parallel(toy_reduced, PARTITION, 1)
    run = combined_parallel(
        toy_reduced, PARTITION, 1, executor=executor, max_workers=2
    )
    assert run.meta["executor"] == executor
    assert np.array_equal(base.efms(), run.efms())


def test_toy_union_identical_across_schedules(toy_reduced):
    # Inline jobs run in canonical order without a memory model and
    # largest predicted peak first with one.
    base = combined_parallel(toy_reduced, PARTITION, 1)
    run = combined_parallel(toy_reduced, PARTITION, 1, memory_model=AMPLE)
    assert run.meta["predicted_total_bytes"] and not run.meta["refinements"]
    assert np.array_equal(base.efms(), run.efms())


def test_compute_efms_executor_matches_inline(toy_reduced):
    base = compute_efms(toy_network(), method="combined", partition=list(PARTITION))
    pp = compute_efms(
        toy_network(),
        method="combined",
        partition=list(PARTITION),
        executor="process-pool",
        max_workers=2,
    )
    assert np.array_equal(base.fluxes, pp.fluxes)


@pytest.mark.slow
def test_yeast_small_equivalence_property():
    """Acceptance property: yeast-I-small, q_sub=5 — bit-identical unions."""
    net = yeast_1_small()
    base = compute_efms(net, method="combined", partition=5)
    assert base.n_efms == 530

    variants: list[tuple[str, dict]] = []
    selected = _selected_executors()
    if "process-pool" in selected:
        variants += [
            ("process-pool-2", {"executor": "process-pool", "max_workers": 2}),
            ("process-pool-4", {"executor": "process-pool", "max_workers": 4}),
        ]
    if "inline" in selected:
        variants.append(("inline-largest-first", {"memory_model": AMPLE}))

    for label, kwargs in variants:
        run = compute_efms(net, method="combined", partition=5, **kwargs)
        assert np.array_equal(base.fluxes, run.fluxes), (
            f"{label} produced a different EFM set"
        )
