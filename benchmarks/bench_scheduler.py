"""Subproblem-scheduler benchmark: process-pool dispatch vs. the
sequential subset loop.

Workload: Algorithm 3 on yeast Network I (small variant) with a
``q_sub = 4`` tail partition — 16 independent subproblems, the shape the
scheduler exists for.  The inline executor *is* the pre-scheduler
sequential loop (same solve path, same order-insensitive merge), so the
comparison isolates what dispatch buys.

Writes ``BENCH_scheduler.json`` plus a text table under
``benchmarks/out/``.  The speedup assertion only fires on multi-core
hosts: on a single core the pool pays fork overhead for zero parallelism
(the JSON records ``cpu_count`` so readers can interpret the number).
Repetitions come from ``REPRO_BENCH_REPS`` (default 3); each
configuration keeps its best time.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.bench.tables import Table
from repro.config import AlgorithmOptions
from repro.dnc.combined import combined_parallel
from repro.dnc.selection import select_partition_reactions
from repro.models.variants import yeast_1_small
from repro.network.compression import compress_network

Q_SUB = 4
REPS = max(1, int(os.environ.get("REPRO_BENCH_REPS", "3")))
#: Modest target: dispatch overhead must not eat the second core.
SPEEDUP_TARGET = 1.2


@pytest.fixture(scope="module")
def scheduler_runs():
    reduced = compress_network(yeast_1_small()).reduced
    partition = select_partition_reactions(
        reduced, Q_SUB, method="tail", options=AlgorithmOptions()
    )
    workers = min(4, os.cpu_count() or 1)
    configs = [
        ("inline", {"executor": "inline"}),
        ("process-pool", {"executor": "process-pool", "max_workers": workers}),
    ]
    out: dict = {"partition": partition, "workers": workers}
    for label, kwargs in configs:
        best = None
        for _ in range(REPS):
            t0 = time.perf_counter()
            run = combined_parallel(reduced, partition, 1, **kwargs)
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best[1]:
                best = (run, elapsed)
        out[label] = best
    return out


def test_executors_bit_identical(scheduler_runs):
    inline_run, _ = scheduler_runs["inline"]
    pool_run, _ = scheduler_runs["process-pool"]
    assert inline_run.n_efms == pool_run.n_efms == 530
    assert np.array_equal(inline_run.efms(), pool_run.efms())


def test_scheduler_benchmark_artifacts(scheduler_runs, write_artifact):
    inline_run, t_inline = scheduler_runs["inline"]
    pool_run, t_pool = scheduler_runs["process-pool"]
    cpu_count = os.cpu_count() or 1
    workers = scheduler_runs["workers"]
    speedup = t_inline / t_pool if t_pool > 0 else float("inf")

    table = Table(
        title=(
            f"Scheduler dispatch, yeast-I-small, q_sub={Q_SUB} "
            f"({len(inline_run.subsets)} subsets, {cpu_count} cores)"
        ),
        columns=["executor", "workers", "wall [s]", "speedup", "EFMs"],
    )
    table.add_row("inline", 1, f"{t_inline:.2f}", "1.00", inline_run.n_efms)
    table.add_row(
        "process-pool", workers, f"{t_pool:.2f}", f"{speedup:.2f}", pool_run.n_efms
    )
    write_artifact("BENCH_scheduler.txt", table.render())

    payload = {
        "network": "yeast-I-small",
        "q_sub": Q_SUB,
        "n_subsets": len(inline_run.subsets),
        "cpu_count": cpu_count,
        "workers": workers,
        "reps": REPS,
        "t_inline_s": round(t_inline, 4),
        "t_process_pool_s": round(t_pool, 4),
        "speedup": round(speedup, 3),
        "speedup_target": SPEEDUP_TARGET,
        # Only meaningful with real parallel hardware under the pool.
        "meets_target": (speedup >= SPEEDUP_TARGET) if cpu_count >= 2 else None,
        "n_efms": inline_run.n_efms,
    }
    write_artifact("BENCH_scheduler.json", json.dumps(payload, indent=2))

    if cpu_count >= 2:
        assert speedup >= SPEEDUP_TARGET, (
            f"process-pool speedup {speedup:.2f} below target "
            f"{SPEEDUP_TARGET} on a {cpu_count}-core host"
        )
