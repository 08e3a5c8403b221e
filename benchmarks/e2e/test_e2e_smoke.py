"""Smoke test of the end-to-end benchmark harness; not part of tier-1.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -p no:cacheprovider

One round of ``y1-serial`` at seed 1: the reaction-shuffled order check,
one set-up probe, one untraced and one traced cold solve; then the
checks the benchmark's numbers rest on.
"""

from __future__ import annotations

import re

import pytest

import run as harness


@pytest.fixture(scope="module")
def entry():
    report = harness.run_benchmark(
        ["y1-serial"], seed=1, seconds=0, trace=True, per_round=1,
        log=lambda _: None,
    )
    return report["workloads"]["y1-serial"]


def test_every_declared_metric_is_reported(entry):
    assert entry["failed"] == 0, entry["errors"]
    assert entry["attempted"] == 3  # order check, untraced, traced
    for kind, key in (("end_to_end", "e2e"), ("per_layer", "layers")):
        names = [metric["name"] for metric in harness.SPEC[kind]]
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
        assert set(entry[key]) == set(names)


def test_top_level_spans_and_unattributed_add_up_to_the_solve(entry):
    trace = entry["trace_example"]
    covered = sum(trace["top_level_s"].values()) + trace["unattributed_s"]
    assert covered == pytest.approx(trace["solve_s"], rel=1e-9)


def test_digest_is_invariant_under_metabolite_and_reaction_order():
    api = harness.import_repro()
    workload = harness.WORKLOADS["y1-serial"]
    registry = harness.build_network(workload, 0)
    seed1 = harness.build_network(workload, 1)
    shuffled = harness.build_network(workload, 1, reactions=True)
    assert seed1.metabolite_names != registry.metabolite_names
    assert seed1.reaction_names == registry.reaction_names
    assert shuffled.reaction_names != registry.reaction_names
    for net in (registry, seed1, shuffled):
        result = api.compute_efms(net, **workload.call)
        assert harness.check_result(result, workload, registry.reaction_names) is None
