"""The zero-mode subset pre-screen of the candidate phase.

Before the rank test, :func:`repro.core.iterstream.stream_iteration`
rejects every candidate whose support strictly contains the support of a
zero-entry mode surviving the current row
(:func:`repro.core.iterstream.zero_mode_supersets`).  That rule is a
necessary condition for nullity >= 2, so it must

* never reject a candidate the per-candidate loop oracle accepts
  (nullity exactly 1) — reversible and irreversible rows;
* leave every EFM set bit-identical to a run with the pre-screen
  patched out, on the serial, combinatorial-parallel and combined
  drivers;
* reject only pairs the combinatorial adjacency test rejects too, on a
  fully irreversible problem (the subset half of that test).
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import AlgorithmOptions
from repro.core import iterstream
from repro.core.ordering import RowSelector
from repro.core.serial import nullspace_algorithm
from repro.core.state import CandidateBatch
from repro.efm.api import compute_efms
from repro.linalg.bitset import PackedSupports
from repro.models.generators import random_network
from repro.models.variants import yeast_1_small
from repro.network.compression import compress_network

from tests.core.adjacency_oracle import AdjacencyTest, split_every_reversible
from tests.core.fraction_oracle import solve_with_fraction_oracle
from tests.core.rank_oracle import rank_test_with

SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

network_params = st.fixed_dictionaries(
    {
        "n_metabolites": st.integers(3, 6),
        "n_reactions": st.integers(6, 11),
        "seed": st.integers(0, 10_000),
        "reversible_fraction": st.sampled_from([0.0, 0.3, 0.6]),
    }
)

@contextlib.contextmanager
def captured_rejections():
    """Record, for every pre-screen call, the supports it rejected together
    with the rank-test inputs of the iteration that made the call."""
    records: list[dict] = []
    current: dict = {}
    stream = iterstream.stream_iteration
    screen = iterstream.zero_mode_supersets

    def stream_spy(modes, k, pos_idx, neg_idx, pair_range, n_perm, rank_bound,
                   options, stats, **kw):
        current.update(k=k, q=modes.q, n_perm=n_perm, rank_bound=rank_bound)
        return stream(modes, k, pos_idx, neg_idx, pair_range, n_perm,
                      rank_bound, options, stats, **kw)

    def screen_spy(words, zero_words):
        hit = screen(words, zero_words)
        if hit.any():
            records.append(dict(current, words=words[hit]))
        return hit

    with mock.patch.object(iterstream, "stream_iteration", stream_spy), \
            mock.patch.object(iterstream, "zero_mode_supersets", screen_spy):
        yield records


@contextlib.contextmanager
def prescreen_off():
    def nothing_rejected(words, zero_words):
        return np.zeros(words.shape[0], dtype=bool)

    with mock.patch.object(iterstream, "zero_mode_supersets", nothing_rejected):
        yield


def assert_loop_rejects_all(records, engine: str = "exact") -> int:
    """Every pre-screen rejection has nullity != 1 under the named loop
    oracle (rational by default); returns the number of rejections
    checked."""
    checked = 0
    for rec in records:
        n = rec["words"].shape[0]
        cand = CandidateBatch(
            PackedSupports(rec["words"], rec["q"]),
            np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), rec["k"],
        )
        accept = rank_test_with(engine, cand, rec["n_perm"], rec["rank_bound"])
        assert not accept.any(), (
            f"pre-screen rejected {int(accept.sum())} elementary candidate(s) "
            f"at row {rec['k']}"
        )
        checked += n
    return checked


@given(params=network_params)
@settings(**SETTINGS)
def test_rejections_are_never_elementary(params):
    net = random_network(**params)
    with captured_rejections() as records:
        compute_efms(net)
    assert_loop_rejects_all(records)


def test_yeast_rejections_are_never_elementary():
    """On a real network the pre-screen does most of the rejecting, and
    every rejection is confirmed by the reference backend."""
    with captured_rejections() as records:
        result = compute_efms(yeast_1_small())
    assert result.n_efms == 530
    # The SVD loop keeps this fast; the random networks use the rational one.
    checked = assert_loop_rejects_all(records, "loop")
    assert checked == result.stats.total_superset_rejected > 0


def _runs(net, partition):
    options = AlgorithmOptions()
    runs = {
        "serial": compute_efms(net, options=options),
        "parallel": compute_efms(net, method="parallel", n_ranks=2, options=options),
    }
    if partition:
        runs["combined"] = compute_efms(
            net, method="combined", partition=partition, options=options
        )
    return runs


@given(params=network_params, data=st.data())
@settings(**SETTINGS)
def test_efm_sets_identical_without_prescreen(params, data):
    net = random_network(**params)
    reduced = compress_network(net).reduced
    partition = None
    if reduced.n_reactions > 3:
        partition = tuple(data.draw(
            st.permutations(list(reduced.reaction_names)).map(lambda p: p[:2])
        ))
    with_screen = _runs(net, partition)
    with prescreen_off():
        without = _runs(net, partition)
    for method, run in with_screen.items():
        ref = without[method]
        assert np.array_equal(run.fluxes, ref.fluxes), method
    # The serial integer run is the Fraction oracle's, to the last bit.
    oracle = solve_with_fraction_oracle(compute_efms, net)
    assert np.array_equal(with_screen["serial"].fluxes, oracle.fluxes)


def test_prescreen_rejections_are_adjacency_rejections():
    """On the fully split yeast-I-small problem, every candidate the
    pre-screen rejects is rejected by the adjacency test as well: the
    zero-entry mode inside its support is a third mode below the pair."""
    problem, _ = split_every_reversible(compress_network(yeast_1_small()).reduced)
    records: list[dict] = []
    current: dict = {}
    next_row = RowSelector.next_row
    stream = iterstream.stream_iteration
    screen = iterstream.zero_mode_supersets

    def next_row_spy(self, modes=None):
        k = next_row(self, modes)
        current["processed"] = (
            list(range(self.problem.first_row)) + self.realized[:-1]
        )
        return k

    def stream_spy(modes, k, *args, **kw):
        current.update(k=k, q=modes.q, current_words=modes.supports.words)
        return stream(modes, k, *args, **kw)

    def screen_spy(words, zero_words):
        hit = screen(words, zero_words)
        if hit.any():
            records.append(dict(current, words=words[hit]))
        return hit

    with mock.patch.object(RowSelector, "next_row", next_row_spy), \
            mock.patch.object(iterstream, "stream_iteration", stream_spy), \
            mock.patch.object(iterstream, "zero_mode_supersets", screen_spy):
        result = nullspace_algorithm(problem)
    checked = 0
    for rec in records:
        test = AdjacencyTest(
            rec["current_words"], rec["q"], rec["k"], processed=rec["processed"]
        )
        assert not test.adjacent(rec["words"]).any(), f"row {rec['k']}"
        checked += rec["words"].shape[0]
    assert checked == result.stats.total_superset_rejected > 0
