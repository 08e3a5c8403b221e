"""Pair-pruning parity: zone-map tiles vs the unpruned reference.

Pruning is a pure skip layer — every pair it drops would have failed the
union-popcount prefilter, every prefilter it elides would have passed —
so the EFM set must be bit-identical with ``pair_pruning="tiles"`` and
``"none"`` under every pair strategy (strided / block / tiled).  The
slow test is the acceptance criterion:
yeast-I-small, serial + combinatorial (P in {2, 4}, tiled strategy) +
combined (q_sub = 5), bit-identical EFM sets and a non-trivial number of
pairs actually skipped.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import AlgorithmOptions
from repro.efm.api import compute_efms
from repro.models.generators import random_network
from repro.models.variants import yeast_1_small

SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

network_params = st.fixed_dictionaries(
    {
        "n_metabolites": st.integers(3, 6),
        "n_reactions": st.integers(6, 10),
        "seed": st.integers(0, 10_000),
        "reversible_fraction": st.sampled_from([0.0, 0.3]),
    }
)


def opts(pruning, block="auto"):
    return AlgorithmOptions(pair_pruning=pruning, pair_block=block)


@given(params=network_params)
@settings(**SETTINGS)
def test_serial_pruning_parity(params):
    net = random_network(**params)
    a = compute_efms(net, options=opts("none"))
    b = compute_efms(net, options=opts("tiles"))
    assert np.array_equal(a.fluxes, b.fluxes)


@given(
    params=network_params,
    strategy=st.sampled_from(["strided", "block", "tiled"]),
    block=st.sampled_from(["auto", 1, 3]),
)
@settings(**SETTINGS)
def test_parallel_pruning_parity_all_strategies(params, strategy, block):
    net = random_network(**params)
    a = compute_efms(
        net, method="parallel", n_ranks=3, pair_strategy=strategy,
        options=opts("none", block=block),
    )
    b = compute_efms(
        net, method="parallel", n_ranks=3, pair_strategy=strategy,
        options=opts("tiles", block=block),
    )
    assert np.array_equal(a.fluxes, b.fluxes)


@given(params=network_params)
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_combined_pruning_parity(params):
    net = random_network(**params)
    a = compute_efms(net, method="combined", partition=2,
                     pair_strategy="tiled", options=opts("none"))
    b = compute_efms(net, method="combined", partition=2,
                     pair_strategy="tiled", options=opts("tiles"))
    assert np.array_equal(a.fluxes, b.fluxes)


def test_tiled_counters_populate():
    """The tiled strategy always builds the tile map, so the new counters
    flow through IterationStats into the RunStats totals."""
    net = random_network(n_metabolites=5, n_reactions=12, seed=7)
    run = compute_efms(net, method="parallel", n_ranks=2,
                       pair_strategy="tiled", options=opts("tiles"))
    assert run.stats is not None
    total_tiles = sum(it.n_tiles_total for it in run.stats.iterations)
    assert total_tiles > 0
    assert run.stats.total_pairs_skipped >= 0
    assert run.stats.peak_prefilter_bytes > 0


@pytest.mark.slow
def test_yeast_small_pruning_parity_property():
    """Acceptance property: yeast-I-small, serial + combinatorial
    (P in {2, 4}, tiled strategy) + combined (q_sub = 5) — tiles and
    none produce bit-identical EFM sets, and tiles actually skips work."""
    net = yeast_1_small()
    runs: dict[str, list] = {}
    for name in ("none", "tiles"):
        o = opts(name)
        runs[name] = [
            compute_efms(net, options=o),
            compute_efms(net, method="parallel", n_ranks=2,
                         pair_strategy="tiled", options=o),
            compute_efms(net, method="parallel", n_ranks=4,
                         pair_strategy="tiled", options=o),
            compute_efms(net, method="combined", partition=5,
                         pair_strategy="tiled", options=o),
        ]
    for label, a, b in zip(
        ("serial", "parallel-2", "parallel-4", "combined-5"),
        runs["none"],
        runs["tiles"],
    ):
        assert a.n_efms == b.n_efms, label
        assert np.array_equal(a.fluxes, b.fluxes), (
            f"{label}: pruned and unpruned EFM sets differ"
        )
    assert runs["tiles"][0].n_efms == 530
    skipped = [r.stats.total_pairs_skipped
               for r in runs["tiles"][:3] if r.stats is not None]
    assert sum(skipped) > 0
